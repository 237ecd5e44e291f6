"""CSV and sidecar I/O for the command line tools.

Dense matrices are written with a label header row and 17-significant-digit
values so that write-then-read round-trips exactly.  Both directions stream
one row at a time: the reader parses each line with one ``np.fromstring``
call, and the writer formats each row with whole-array numpy operations, in
scratch of a few arrays of the row's length, into exactly the bytes of
``FLOAT_FMT % x``.  The 17 digits of x are round(|x| * 10**(16 - e)) for its
decade e, computed in ``np.longdouble`` with 10**s exact where it fits (0 <=
s <= 27 for a 64-bit significand) or rounded once, so the product is off by
less than ``_MARGIN`` = 2 eps 1e17.
A value whose scaled fraction lies within the margin of one half, whose
decade is uncertain, or that is 0, subnormal, inf or nan, is formatted by
``FLOAT_FMT % x`` itself: a fast path with an error bound and an exact
fallback, after Loitsch (PLDI 2010).  Where long double is no wider than a
double the margin exceeds one half and every value falls back.  Every CLI
output file gets a JSON sidecar (same basename, .meta.json) recording
version, seed, parameters, and timing.
"""

from __future__ import annotations

import json
import time
import warnings
from pathlib import Path

import numpy as np

from .errors import ParseError
from .graphs import WeightedDigraph

# Every number written to a CSV file: 17 significant digits round-trip.
FLOAT_FMT = "%.17g"

_MARGIN = 2.0 * float(np.finfo(np.longdouble).eps) * 1e17


def _longdouble_pow10(s: int) -> np.longdouble:
    """10**s rounded once, to nearest with ties to even, to np.longdouble."""
    num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
    e = num.bit_length() - den.bit_length()
    e -= num << max(-e, 0) < den << max(e, 0)  # now 2**e <= num / den < 2**(e + 1)
    shift = np.finfo(np.longdouble).nmant - e
    num, den = num << max(shift, 0), den << max(-shift, 0)
    q, r = divmod(num, den)
    q += 2 * r > den or (2 * r == den and q & 1)
    v = np.longdouble(0)
    for k in range(q.bit_length() // 32, -1, -1):  # exact: each partial sum fits
        v = v * 2**32 + ((q >> 32 * k) & 0xFFFFFFFF)
    return np.ldexp(v, -shift)


# Per decade e of a normal double: the scale 10**(16 - e), and the layout.
# Z = N * _SHIFT holds 21 digits: the 17 of N, then zeros, or for
# 1e-4 <= |x| < 1 the leading zeros of "0.000ddd" in front.  The dot follows
# digit _DOT, at least _KEEP digits stay, and exponent notation ends in
# _SUFFIX (NUL-padded).
_E_MIN, _E_MAX = -308, 308
_DECADES = range(_E_MIN, _E_MAX + 1)
with np.errstate(over="ignore", under="ignore"):
    _POW10 = np.array([_longdouble_pow10(16 - e) for e in _DECADES], dtype=np.longdouble)
_SHIFT = np.array([10 ** (4 + e) if -4 <= e < 0 else 10**4 for e in _DECADES])
_DOT = np.array([e if 0 <= e < 17 else 0 for e in _DECADES], dtype=np.uint8)
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


def _scaled_digits(x):
    """Decade index e - _E_MIN, the 17 digits as an integer, and where they are exact."""
    ax = np.abs(x)
    fast = (ax >= np.finfo(np.float64).tiny) & (ax <= np.finfo(np.float64).max)
    np.copyto(ax, 1.0, where=~fast)
    # An estimate of e that is off by one fails the range check on N.
    e = np.floor(np.log(ax) * (1.0 / np.log(10.0))).astype(np.intp) - _E_MIN
    p = np.multiply(ax, _POW10[e])
    N = p.astype(np.int64)
    frac = (p - N).astype(np.float64)
    N += frac > 0.5
    fast &= np.abs(frac - 0.5) > _MARGIN
    Nf = N.astype(np.float64)  # rounds monotonically, so the check stays safe
    fast &= (Nf > 1e16) & (Nf < 1e17)
    return e, N, fast


def _put_digits(N, shift, R):
    """ASCII digits of the 21-digit N * shift into rows 3..23 of R."""
    G = np.empty((6, N.shape[0]), np.uint32)
    hi = N // 10**8
    lo = (N - hi * 10**8) * shift
    A = lo // 10**8
    B = lo - A * 10**8
    A += hi * shift
    rows = iter(G)
    for v, divisors in ((A, (10**12, 10**8, 10**4)), (B, (10**4,))):
        for d in divisors:
            g = v // d
            v -= g * d
            np.take(_DIGITS4, g, out=next(rows), mode="clip")
        np.take(_DIGITS4, v, out=next(rows), mode="clip")
    np.copyto(R[:24].reshape(6, 4, -1), G.view(np.uint8).reshape(6, -1, 4).transpose(0, 2, 1))


def _text_grid(x):
    """The texts of the fast values as NUL-padded rows of a C-ordered grid.

    The grid is built transposed, one row per character and one column per
    value, so that each step below is a whole-row operation.
    """
    n = x.shape[0]
    e, N, fast = _scaled_digits(x)
    R = np.empty((3 + _WIDTH, n), np.uint8)
    _put_digits(N, _SHIFT[e], R)
    R[24:] = 0
    T = R[3:]  # R[:3] holds the zeros that pad the first digit
    digits = T[:21]
    # Trailing zeros become NUL, except those of the integer part.
    kept = ((digits > ord("0")) * _ROW[1:22]).max(axis=0)
    np.maximum(kept, _KEEP[e], out=kept)
    digits *= kept > _ROW[:21]
    # The dot goes after digit `dot` and the rows below it move down by one;
    # without a fraction, dot = 22 puts it on an empty row past the text.
    dot = _DOT[e]
    has_dot = kept > dot + 1
    dot[~has_dot] = 22
    step = T[0:22] - T[1:23]
    step *= _ROW[:22] > dot
    T[1:23] += step
    T[dot + 1, np.arange(n)] = has_dot * np.uint8(ord("."))
    neg = np.signbit(x)
    if neg.any():  # a minus sign moves the whole text down by one
        step = T[0:23] - T[1:24]
        step *= neg
        T[1:24] += step
        T[0] += (np.uint8(ord("-")) - T[0]) * neg
    sci = np.flatnonzero((_SUFFIX[:, 0][e] > 0) & fast)
    if sci.size:
        at = kept[sci] + has_dot[sci] + neg[sci]
        T.reshape(-1)[(at + np.arange(5)[:, None]) * n + sci] = _SUFFIX[e[sci]].T
    return T.T.copy(), fast


def _format_row(x) -> list:
    """``[(FLOAT_FMT % v).encode() for v in x]`` for a float64 row."""
    grid, fast = _text_grid(x)
    out = grid.view(f"S{_WIDTH}").ravel().tolist()
    slow = np.flatnonzero(~fast)
    for i, v in zip(slow.tolist(), x[slow].tolist()):
        out[i] = (FLOAT_FMT % v).encode()
    return out


def write_dense_csv(path, M: np.ndarray, labels) -> None:
    M = np.asarray(M)
    with open(path, "wb") as fh:
        fh.write((",".join(str(l) for l in labels) + "\n").encode("utf-8"))
        for row in M:  # other real dtypes become float64 as they do under `%`
            fh.write(b",".join(_format_row(row.astype(np.float64, copy=False))) + b"\n")


def read_dense_csv(path):
    """Read a matrix written by :func:`write_dense_csv`.

    Blank lines and lines starting with ``#`` are skipped; the first other
    line holds the labels and every later one a row.  A row whose value count
    differs from the labels', or that holds a non-numeric value, raises
    :class:`ParseError` with its line number in the file.
    """
    labels = None
    rows = []
    with open(path, "rb") as fh, warnings.catch_warnings():
        # Older numpy releases only warn on a partial parse; make them raise.
        warnings.simplefilter("error", DeprecationWarning)
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip(b"\r\n")
            if not line.strip() or line.startswith(b"#"):
                continue
            if labels is None:
                labels = line.decode("utf-8").split(",")
                continue
            try:
                row = np.fromstring(line, sep=",")
            except (ValueError, DeprecationWarning):
                raise ParseError("non-numeric value", lineno) from None
            # fromstring accepts a trailing comma, so count the commas too.
            if row.size != len(labels) or line.count(b",") != len(labels) - 1:
                raise ParseError(f"expected {len(labels)} values", lineno)
            rows.append(row)
    if labels is None:
        raise ParseError("empty matrix file", 1)
    return np.array(rows), labels


def write_edge_csv(path, g: WeightedDigraph) -> None:
    coo = g.weights.tocoo()
    line_fmt = f"%s,%s,{FLOAT_FMT}\n"
    with open(path, "w", encoding="utf-8") as fh:
        for i, j, w in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
            fh.write(line_fmt % (g.labels[i], g.labels[j], w))
        if coo.nnz == 0:
            fh.write("\n")  # an edgeless graph is written as one empty line


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
