"""CSV and sidecar I/O for the command line tools.

Dense matrices are written with a label header row and 17-significant-digit
values so that write-then-read round-trips exactly.  Both directions stream:
the reader parses each line with one ``np.fromstring`` call, and the writer
formats a block of n // 160 rows at a time (scratch of about 3 % of the
file's size) into exactly the bytes of ``FLOAT_FMT % x``, with one
``write`` per block.  The 17 digits of x are N = round(|x| * 10**s), s = 16 - e
for its decade e.  10**s is held as hi + lo, both doubles rounded from exact
fractions; |x| * hi is split exactly into p + err by Dekker's two-product, and
|x| * lo is added to err.  With u = 2**-53 and p < 2**57, p + err misses
|x| * 10**s by at most u**2 p (the rest of 10**s past lo) + 2**-50 (rounding
|x| * lo, below 16) + 2**-49 (rounding the sum, below 32), under 2**-47 of a
unit of the 17th digit; ``_MARGIN`` = 2**-44 leaves a factor of 8.  A value
whose scaled fraction lies within the margin of one half, that is
subnormal, inf or nan, or that lies outside 1e-290 <= |x| < 1e290 (where the
splits could overflow) is formatted by ``FLOAT_FMT % x`` itself, all such
values of a block in one string: a fast path with an error bound and an
exact fallback, after Loitsch (PLDI 2010).  Zeros take the fast path.
Edge lists are written the same way, a chunk of edges at a time.  Every CLI
output file gets a JSON sidecar (same basename, .meta.json) recording
version, seed, parameters, and timing.
"""

from __future__ import annotations

import json
import math
import os
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import ParseError
from .graphs import WeightedDigraph

# Every number written to a CSV file: 17 significant digits round-trip.
FLOAT_FMT = "%.17g"

_MARGIN = 2.0**-44


def _two_parts(t: Fraction) -> tuple:
    """(hi, lo): t rounded once to a double, then the rest rounded once."""
    hi = float(t)
    return hi, float(t - Fraction(hi))


def _ceil(t: Fraction) -> float:
    """The least double >= t."""
    f = float(t)
    return f if f >= t else math.nextafter(f, math.inf)


def _split(v: float) -> tuple:
    """Dekker's split of v into two halves of at most 26 significant bits."""
    f, q = math.frexp(v)
    m = int(f * 2**53)
    top = (m + 2**26) >> 27 << 27
    return math.ldexp(top, q - 53), math.ldexp(m - top, q - 53)


# Per decade e of a double in the fast range: the scale 10**(16 - e) as
# hi + lo and Dekker's split of hi, the least double >= 10**(e + 1), and the
# layout.  Z = N * _SHIFT holds 21 digits: the 17 of N, then zeros, or for
# 1e-4 <= |x| < 1 the leading zeros of "0.000ddd" in front.  The dot follows
# digit _DOT, at least _KEEP digits stay, and exponent notation ends in
# _SUFFIX (NUL-padded).
_E_MIN, _E_MAX = -292, 292
_DECADES = range(_E_MIN, _E_MAX + 1)
_FAST_MIN, _FAST_MAX = 1e-290, 1e290
_HI, _LO = np.array([_two_parts(Fraction(10) ** (16 - e)) for e in _DECADES]).T
_HH, _HL = np.array([_split(hi) for hi in _HI.tolist()]).T
_CEIL10 = np.array([_ceil(Fraction(10) ** (e + 1)) for e in _DECADES])
# By biased binary exponent b: the decade index of 2**(b - 1023); a double
# with that exponent lies in that decade or the next.
_DECADE_OF = np.array([((b - 1023) * 78913 >> 18) - _E_MIN for b in range(2048)])
_SHIFT = np.array([10 ** (4 + e) if -4 <= e < 0 else 10**4 for e in _DECADES])
_DOT = np.array([e if 0 <= e < 17 else 0 for e in _DECADES])
_KEEP = np.array([e + 1 if 0 <= e < 17 else 1 for e in _DECADES], dtype=np.uint8)
_SUFFIX = np.array([b"" if -4 <= e < 17 else b"e%+03d" % e for e in _DECADES], dtype="S5")
_SUFFIX = _SUFFIX.view(np.uint8).reshape(-1, 5)
# "0000" .. "9999": the four ASCII digits of k as one uint32.
_DIGITS4 = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
for _k, _digit in enumerate(np.ix_(*[np.arange(48, 58, dtype=np.uint8)] * 4)):
    _DIGITS4[..., _k] = _digit
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()
_ROW = np.arange(24, dtype=np.uint8)[:, None]
_WIDTH = 24  # the longest text, "-d.dddddddddddddddde-308"
_VALUES_PER_BLOCK_ROW = 160  # a block has n // 160 rows
_EDGES_PER_CHUNK = 1 << 12


def _times_pow10(ax, e):
    """(p, err) with p + err = ax * 10**(16 - e) to within 2**-47 (see the
    module docstring): ax * hi = p + err exactly by Dekker's two-product,
    then ax * lo is added to err."""
    p = ax * _HI[e]
    xh = ax * 134217729.0  # 2**27 + 1
    xh -= xh - ax
    xl = ax - xh
    hh, hl = _HH[e], _HL[e]
    err = xh * hh
    err -= p
    err += xh * hl
    err += xl * hh
    err += xl * hl
    err += ax * _LO[e]
    return p, err


def _scaled_digits(x):
    """Decade index e - _E_MIN, the 17 digits as an integer, and where they are exact."""
    ax = np.abs(x)
    fast = (ax >= _FAST_MIN) & (ax < _FAST_MAX)
    np.copyto(ax, 1.0, where=~fast)
    zero = x == 0.0  # N = 0 in decade 0 spells "0"
    fast |= zero
    e = _DECADE_OF[ax.view(np.int64) >> 52]
    e += ax >= _CEIL10[e]
    p, err = _times_pow10(ax, e)
    r = np.rint(err)
    err -= r  # exact: the distance to the nearest integer
    fast &= np.abs(err) < 0.5 - _MARGIN
    N = p.astype(np.int64)
    N += r.astype(np.int64)
    N[zero] = 0
    carry = N == 10**17  # rounded up into the next decade
    N[carry] = 10**16
    e += carry
    return e, N, fast


def _put_digits(N, shift, T):
    """ASCII digits of the 21-digit N * shift into rows 0..20 of T."""
    A = N // 10**8
    B = N - A * 10**8
    B *= shift
    A *= shift
    carry = B // 10**8
    B -= carry * 10**8
    A += carry  # N * shift is A * 10**8 + B
    d = A // 10**12
    np.add(d, ord("0"), out=T[0], casting="unsafe")
    A -= d * 10**12
    g = np.empty(N.shape[0], np.uint32)
    rows = iter(T[1:21].reshape(5, 4, -1))

    def put(group):  # four ASCII digits of each value of group into the next rows
        np.take(_DIGITS4, group, out=g, mode="clip")
        next(rows)[...] = g.view(np.uint8).reshape(-1, 4).T

    for v, divisors in ((A, (10**8, 10**4)), (B, (10**4,))):
        for div in divisors:
            q = v // div
            v -= q * div
            put(q)
        put(v)


def _text_grid(x):
    """The texts of the fast values as NUL-padded columns of a grid, their
    longest length, and which values are fast.

    The grid is built transposed, one row per character and one column per
    value, so that each step below is a whole-row operation.
    """
    n = x.shape[0]
    e, N, fast = _scaled_digits(x)
    T = np.empty((_WIDTH, n), np.uint8)
    _put_digits(N, _SHIFT[e], T)
    T[21:] = 0
    digits = T[:21]
    # Trailing zeros become NUL, except those of the integer part.
    nonzero = (digits > ord("0")).view(np.uint8)
    nonzero *= _ROW[1:22]
    kept = nonzero.max(axis=0)
    np.maximum(kept, _KEEP[e], out=kept)
    digits *= kept > _ROW[:21]
    # A dot after the first digit: the rows below it move down by one.
    dot = _DOT[e]
    has_dot = kept > dot + 1
    T[2:22] = T[1:21]
    np.multiply(has_dot, np.uint8(ord(".")), out=T[1])
    wide = np.flatnonzero(dot)
    if wide.size:  # 10 <= |x| < 1e17: the dot follows digit `dot` instead
        W, at = T[:18, wide], dot[wide]
        step = W[2:18] - W[1:17]
        step *= _ROW[1:17] <= at
        W[1:17] += step
        W[at + 1, np.arange(wide.size)] = T[1, wide]
        T[:18, wide] = W
    neg = np.signbit(x)
    if neg.any():  # a minus sign moves the whole text down by one
        step = T[0:23] - T[1:24]
        step *= neg
        T[1:24] += step
        T[0] += (np.uint8(ord("-")) - T[0]) * neg
    width = kept + has_dot
    width += neg
    sci = np.flatnonzero(_SUFFIX[:, 0][e])
    if sci.size:
        at = width[sci]
        T.reshape(-1)[(at + np.arange(5)[:, None]) * n + sci] = _SUFFIX[e[sci]].T
        width[sci] += 5
    return T, int(width[fast].max(initial=0)), fast


def _texts(x, left: int):
    """``FLOAT_FMT % v`` for each v of the float64 x, as NUL-padded rows.

    Returns (buf, width): the texts fill columns left .. left + width of
    the uint8 array buf, of shape (len(x), left + width + 1); the first
    `left` columns and the last are the caller's to fill.
    """
    T, width, fast = _text_grid(x)
    slow = np.flatnonzero(~fast)
    if slow.size:  # one string holds every fallback text, one per line
        text = ((FLOAT_FMT + "\n") * slow.size % tuple(x[slow].tolist())).encode()
        text = np.frombuffer(text, np.uint8)
        ends = np.flatnonzero(text == ord("\n"))
        lengths = np.diff(ends, prepend=-1) - 1
        width = max(width, int(lengths.max()))
    buf = np.empty((x.shape[0], left + width + 1), np.uint8)
    out = buf[:, left:left + width]
    out[...] = T[:width].T
    if slow.size:
        out[slow] = 0
        col = np.arange(text.size) - np.repeat(ends - lengths, lengths + 1)
        keep = text != ord("\n")
        out[np.repeat(slow, lengths), col[keep]] = text[keep]
    return buf, width


def _block_text(rows, sep):
    """The CSV lines of a block of rows: each value's text, then ``sep``."""
    # other real dtypes become float64 as they do under `%`
    x = rows.astype(np.float64, copy=False).ravel()
    buf, width = _texts(x, 0)
    buf[:, width] = sep[:x.shape[0]]
    buf = buf.ravel()
    return buf[buf != 0]


def write_dense_csv(path, M: np.ndarray, labels) -> None:
    M = np.asarray(M)
    n_rows, n_cols = M.shape
    step = max(1, n_cols // _VALUES_PER_BLOCK_ROW)
    sep = np.full((step, n_cols), ord(","), np.uint8)
    sep[:, -1:] = ord("\n")
    sep = sep.ravel()
    with open(path, "wb") as fh:
        fh.write((",".join(str(l) for l in labels) + "\n").encode("utf-8"))
        if n_cols == 0:
            fh.write(b"\n" * n_rows)
            return
        for r in range(0, n_rows, step):
            fh.write(_block_text(M[r:r + step], sep))


def read_dense_csv(path):
    """Read a matrix written by :func:`write_dense_csv`.

    Blank lines and lines starting with ``#`` are skipped; the first other
    line holds the labels and every later one a row.  A row whose value count
    differs from the labels', or that holds a non-numeric value, raises
    :class:`ParseError` with its line number in the file.  Each row is parsed
    by one ``np.fromstring`` into the matrix returned, which has a row per
    label (grown if there are more).
    """
    labels, out, filled = None, None, 0
    with open(path, "rb") as fh, warnings.catch_warnings():
        # Older numpy releases only warn on a partial parse; make them raise.
        warnings.simplefilter("error", DeprecationWarning)
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip(b"\r\n")
            if not line.strip() or line.startswith(b"#"):
                continue
            if labels is None:
                try:
                    labels = line.decode("utf-8").split(",")
                except UnicodeDecodeError as exc:
                    raise ParseError(f"not UTF-8: {exc.reason}", lineno) from None
                # A row per label, or as many as the file can hold at two
                # bytes a value.
                most = os.fstat(fh.fileno()).st_size // (2 * len(labels)) + 1
                out = np.empty((min(len(labels), most), len(labels)))
                continue
            try:
                row = np.fromstring(line, sep=",")
            except (ValueError, DeprecationWarning):
                raise ParseError("non-numeric value", lineno) from None
            # fromstring accepts a trailing comma, so count the commas too.
            if row.size != len(labels) or line.count(b",") != len(labels) - 1:
                raise ParseError(f"expected {len(labels)} values", lineno)
            if filled == len(out):  # more rows than labels
                out = np.concatenate([out, np.empty_like(out)])
            out[filled] = row
            filled += 1
    if labels is None:
        raise ParseError("empty matrix file", 1)
    if filled == 0:
        return np.array([]), labels
    return (out if filled == len(out) else out[:filled].copy()), labels


def write_edge_csv(path, g: WeightedDigraph) -> None:
    """One ``src,dst,weight`` line per stored edge in CSR order, the weight
    as ``FLOAT_FMT``; an edgeless graph is one empty line.  Written
    ``_EDGES_PER_CHUNK`` edges at a time."""
    w = g.weights
    # Each label followed by its comma, NUL-padded; `size` counts its bytes.
    names = [f"{l},".encode("utf-8") for l in g.labels]
    size = np.array([len(b) for b in names])
    names = np.array(names, dtype=bytes)
    pad = names.itemsize
    names = names.view(np.uint8).reshape(-1, pad)
    col = np.arange(pad)
    with open(path, "wb") as fh:
        if w.nnz == 0:
            fh.write(b"\n")
        for k in range(0, w.nnz, _EDGES_PER_CHUNK):
            edges = np.arange(k, min(k + _EDGES_PER_CHUNK, w.nnz))
            src = np.searchsorted(w.indptr, edges, side="right") - 1
            dst = w.indices[edges]
            buf, _ = _texts(w.data[edges].astype(np.float64, copy=False), 2 * pad)
            buf[:, -1] = ord("\n")
            keep = buf != 0
            for at, nodes in ((0, src), (pad, dst)):
                buf[:, at:at + pad] = names[nodes]
                keep[:, at:at + pad] = col < size[nodes, None]
            fh.write(buf[keep])


def write_column_csv(path, labels, columns: dict) -> None:
    """Write `label,<col1>,<col2>,...` rows with a header line."""
    names = list(columns)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label," + ",".join(names) + "\n")
        for i, lab in enumerate(labels):
            vals = []
            for name in names:
                v = columns[name][i]
                vals.append(FLOAT_FMT % v if isinstance(v, (int, float, np.floating)) else str(v))
            fh.write(f"{lab}," + ",".join(vals) + "\n")


def meta_path(path) -> Path:
    p = Path(path)
    return p.with_name(p.stem + ".meta.json")


def write_meta(path, command: str, params: dict, seed=None, started: float = None) -> None:
    from . import __version__

    meta = {
        "version": __version__,
        "command": command,
        "parameters": params,
        "seed": seed,
    }
    if started is not None:
        meta["elapsed_seconds"] = time.time() - started
    meta_path(path).write_text(json.dumps(meta, indent=2, default=str) + "\n",
                               encoding="utf-8")
