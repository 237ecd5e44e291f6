"""Weighted digraph ingestion, strongly connected components, row normalization.

Graphs are held sparse (CSR) on ingest; transition matrices are materialized
dense because every downstream kernel is dense O(n^3).  Dense materialization
is refused above ``DENSE_LIMIT`` nodes.  Strong components (Tarjan, O(n +
edges)) of a dense matrix are computed on a CSR read straight off its
nonzeros (``_nonzero_csr``), never by a general dense-to-sparse conversion.
"""

from __future__ import annotations

import functools
import io
import math
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import InputError, IrreducibilityError, ParseError

DENSE_LIMIT = 12_000

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class WeightedDigraph:
    """Nonnegative weighted digraph with opaque node labels.

    ``weights[i, j]`` is the weight of the edge i -> j (CSR sparse).  Stored
    zeros are dropped here, so a zero weight is no edge anywhere downstream.
    """

    n: int
    labels: list
    weights: sp.csr_matrix

    def __post_init__(self):
        w = self.weights
        w.eliminate_zeros()
        if w.shape != (self.n, self.n):
            raise InputError(f"weight matrix shape {w.shape} does not match n={self.n}")
        if len(self.labels) != self.n:
            raise InputError("label count does not match node count")
        if len(set(self.labels)) != self.n:
            raise InputError("node labels must be unique")
        if w.nnz:
            data = w.data
            if not np.all(np.isfinite(data)):
                raise InputError("edge weights must be finite")
            if data.min() < 0:
                raise InputError("edge weights must be nonnegative")


def _nonzero_csr(M: np.ndarray) -> sp.csr_matrix:
    """CSR copy of the dense 2-D ``M`` (zeros dropped), read straight off its
    nonzeros: one ``flatnonzero`` pass, int32 indices (csgraph's own, so it
    converts nothing again) and ``indptr`` from where each row starts among
    them.  The values are gathered after the flat positions are freed, so
    on a full matrix the peak is 13 bytes per entry beside ``M``.
    """
    rows, cols = M.shape
    nonzero = M != 0
    flat = np.flatnonzero(nonzero)
    indptr = np.searchsorted(flat, np.arange(rows + 1) * cols).astype(np.int32)
    indices = np.remainder(flat, cols, out=flat).astype(np.int32)
    del flat
    return sp.csr_matrix((M[nonzero], indices, indptr), shape=M.shape)


def make_digraph(weights, labels=None) -> WeightedDigraph:
    """Build a WeightedDigraph from a dense or sparse weight matrix."""
    if sp.issparse(weights):
        w = sp.csr_matrix(weights, dtype=float)
    else:
        w = _nonzero_csr(np.asarray(weights, dtype=float))
    n = w.shape[0]
    if labels is None:
        labels = [str(i) for i in range(n)]
    return WeightedDigraph(n=n, labels=list(labels), weights=w)


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic matrix over a strongly connected support.

    ``P`` must not be changed after construction: ``__post_init__``
    validates it once, and the per-chain results of ``per_chain`` functions
    (the stationary distribution and Q) are memoized on the instance and
    returned read-only.  A new chain, e.g. a fresh ``row_normalize``, starts
    with an empty memo, and so does a pickled copy: numpy does not pickle
    the read-only flag, so a restored memo would hand out writeable results.
    """

    n: int
    P: np.ndarray
    labels: list = field(default=None)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.labels is None:
            object.__setattr__(self, "labels", [str(i) for i in range(self.n)])
        P = self.P
        if P.shape != (self.n, self.n):
            raise InputError(f"transition matrix shape {P.shape} does not match n={self.n}")
        if len(self.labels) != self.n or len(set(self.labels)) != self.n:
            raise InputError("labels must be unique and match node count")
        if not np.all(np.isfinite(P)):
            raise InputError("transition matrix entries must be finite")
        if P.min() < 0.0 or P.max() > 1.0 + ROW_SUM_TOL:
            raise InputError("transition matrix entries must lie in [0, 1]")
        err = np.abs(P.sum(axis=1) - 1.0).max()
        if err > ROW_SUM_TOL:
            raise InputError(f"rows must sum to 1 (max deviation {err:.3e})")
        comps = strongly_connected_components(P)  # P >= 0: its nonzeros are its edges
        if len(comps) != 1:
            raise IrreducibilityError(
                f"support graph has {len(comps)} strongly connected components; "
                "restrict to one (largest_scc) first"
            )

    def __getstate__(self):
        return {**self.__dict__, "_memo": {}}


def per_chain(compute):
    """Memoize ``compute(tm)`` on the chain ``tm``.

    The first call computes; later calls on the same TransitionMatrix return
    the same object.  A call that raises stores nothing.
    """

    key = f"{compute.__module__}.{compute.__qualname__}"

    @functools.wraps(compute)
    def memoized(tm: TransitionMatrix):
        result = tm._memo.get(key)
        if result is None:
            # setdefault: callers racing on one chain all get the first result.
            result = tm._memo.setdefault(key, compute(tm))
        return result

    return memoized


def strongly_connected_components(support) -> list:
    """Strongly connected components of the digraph with an edge wherever
    `support` (any boolean/weight matrix, dense or sparse) is nonzero.

    Returns components as lists of node indices, in csgraph's label order;
    within each component indices are sorted ascending.
    """
    if not sp.issparse(support):
        support = _nonzero_csr(np.asarray(support))
    count, labels = connected_components(support, directed=True, connection="strong")
    if count == 1:
        return [list(range(labels.size))]
    order = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels, minlength=count)).tolist()
    return [order[start:end] for start, end in zip([0, *ends[:-1]], ends)]


def largest_scc(g: WeightedDigraph):
    """Restrict to the largest strongly connected component.

    Ties are broken by the smallest minimum original node index.  Returns the
    restricted graph and the index map {old: new} for retained nodes; a
    strongly connected ``g`` is returned itself, with the identity map.
    """
    if g.n == 0:
        raise InputError("graph is empty")
    comps = strongly_connected_components(g.weights)
    if len(comps) == 1:
        return g, dict(zip(range(g.n), range(g.n)))
    keep = max(comps, key=lambda c: (len(c), -c[0]))  # each component is sorted
    index_map = {old: new for new, old in enumerate(keep)}
    sub = g.weights[keep, :][:, keep].tocsr()
    labels = [g.labels[i] for i in keep]
    return WeightedDigraph(n=len(keep), labels=labels, weights=sub), index_map


def row_normalize(g: WeightedDigraph) -> TransitionMatrix:
    """Divide each row by its sum to obtain a transition matrix.

    Raises IrreducibilityError on a zero row, naming the node;
    ``TransitionMatrix`` rejects any other reducible support.
    """
    if g.n > DENSE_LIMIT:
        raise InputError(f"n={g.n} exceeds the dense limit of {DENSE_LIMIT}")
    w = np.asarray(g.weights.todense(), dtype=float)
    sums = w.sum(axis=1)
    zero = np.nonzero(sums <= 0.0)[0]
    if zero.size:
        raise IrreducibilityError(f"node {g.labels[zero[0]]!r} has no outgoing weight")
    w /= sums[:, None]  # w is a fresh dense copy: P takes its buffer
    return TransitionMatrix(n=g.n, P=w, labels=list(g.labels))


def numbered_lines(source, start: int = 0):
    """(number, text) of each line of bytes, str, or a binary or text stream,
    ended by \\n, \\r\\n or \\r as a text file reads them, numbered from
    ``start`` + 1.  Bytes are decoded as UTF-8 one line at a time: the whole
    text is never held."""
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    elif isinstance(source, str):
        source = (m[0] for m in re.finditer(r".*\n|.+", source))
    lineno = start
    for chunk in source:
        if isinstance(chunk, bytes):
            try:
                chunk = chunk.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"not UTF-8: {exc.reason}", lineno + 1) from None
        for line in chunk.removesuffix("\n").removesuffix("\r").split("\r"):
            lineno += 1
            yield lineno, line


def _weight(w: float, lineno: int, token: str | None = None) -> float:
    """``w`` if it is a valid edge weight; CSV errors quote its ``token``."""
    if not math.isfinite(w):
        quoted = "" if token is None else f" {token.strip()!r}"
        raise ParseError(f"non-finite weight{quoted}", lineno)
    if w < 0:
        raise InputError(f"line {lineno}: negative weight {w}")
    return w


# Bytes (or characters) of whole lines per chunk of a CSV edge list.
_CSV_CHUNK = 1 << 16


def _line_chunks(source):
    """Pieces of bytes, str, or a binary or text stream, each a run of whole
    lines that ends in \\n (one is added to the last), of about
    ``_CSV_CHUNK`` each."""
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    elif isinstance(source, str):
        source = io.StringIO(source, newline="")
    carry = None
    while piece := source.read(_CSV_CHUNK):
        nl = b"\n" if isinstance(piece, bytes) else "\n"
        piece = piece if carry is None else carry + piece
        cut = piece.rfind(nl) + 1
        if cut:
            yield piece[:cut]
        carry = piece[cut:]
    if carry:
        yield carry + nl


# Whitespace other than the line ends, which a plain chunk has none of.
_SPACE = re.compile(r"[^\S\n]")


def _plain_csv(chunk, index: defaultdict, rows: array, cols: array, vals: array) -> int:
    """Append the edges of a chunk of whole lines as whole arrays and return
    its line count; return 0, having appended nothing, unless every line is
    plain.  Plain: every line `src,dst` or every line `src,dst,weight`, no
    empty field, no '#', no whitespace but the \\n ending each line, and
    weights that ``float`` parses to finite values >= 0.  The lines are
    checked on the chunk's bytes, the labels mapped by one ``index`` lookup
    each and the weights parsed by one ``np.array`` call."""
    raw = chunk.encode("utf-8", "surrogatepass") if isinstance(chunk, str) else chunk
    b = np.frombuffer(raw, np.uint8)
    ends = np.flatnonzero(b == 10)
    seps = np.flatnonzero((b == 44) | (b == 10))
    k = len(seps) // len(ends)  # fields per line
    if (k not in (2, 3) or len(seps) != k * len(ends) or not np.array_equal(seps[k - 1::k], ends)
            or np.diff(seps, prepend=-1).min() < 2
            or np.count_nonzero((b <= 32) | (b == 35)) != len(ends)):
        return 0
    try:
        text = chunk.decode("utf-8") if isinstance(chunk, bytes) else chunk
    except UnicodeDecodeError:
        return 0
    if b.max() >= 128 and _SPACE.search(text):
        return 0
    fields = text.replace("\n", ",").split(",")
    fields.pop()  # after the last line end
    w = np.ones(len(ends))
    if k == 3:
        try:  # float's own parse of each str: the same values and errors
            w = np.array(fields[2::3], dtype=float)
        except ValueError:
            return 0
        if not (np.isfinite(w).all() and (w >= 0).all()):
            return 0
        del fields[2::3]
    codes = np.fromiter(map(index.__getitem__, fields), np.int32, len(fields))
    rows.frombytes(codes[0::2].tobytes())
    cols.frombytes(codes[1::2].tobytes())
    vals.frombytes(w.tobytes())
    return len(ends)


def _csv_lines(lines, index: defaultdict, rows: array, cols: array, vals: array) -> int:
    """Append each CSV edge of the numbered lines; return the last number."""
    lineno = None
    for lineno, raw in lines:
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        parts = line.split(",")
        if not 2 <= len(parts) <= 3:
            raise ParseError(f"expected 'src,dst[,weight]', got {raw!r}", lineno)
        src, dst, weight = (*parts, "1.0")[:3]
        src, dst = src.strip(), dst.strip()
        if not src or not dst:
            raise ParseError("empty node label", lineno)
        try:
            w = float(weight)
        except ValueError:
            raise ParseError(f"bad weight {weight.strip()!r}", lineno) from None
        vals.append(_weight(w, lineno, weight))
        rows.append(index[src])
        cols.append(index[dst])
    return lineno


def _csv_edges(source, rows: array, cols: array, vals: array) -> list:
    """Append each CSV edge to rows, cols and vals; return the node labels.
    Chunks of plain lines are parsed as whole arrays, any other chunk line by
    line, with the same labels, weights and errors."""
    index = defaultdict()
    index.default_factory = index.__len__  # a new label gets the next id
    lineno = 0
    for chunk in _line_chunks(source):
        plain = _plain_csv(chunk, index, rows, cols, vals)
        lineno = lineno + plain if plain else _csv_lines(numbered_lines(chunk, lineno), index,
                                                         rows, cols, vals)
    if not index:
        raise InputError("edge list contains no edges")
    return list(index)


def _matrix_market_edges(lines, rows: array, cols: array, vals: array) -> list:
    """Append each Matrix Market entry to rows, cols and vals; return labels."""
    lineno, header = next(lines, (1, None))
    if header is None:
        raise ParseError("empty file", 1)
    header = header.lower().split()
    if len(header) < 5 or header[0] not in ("%%matrixmarket", "%matrixmarket"):
        raise ParseError("missing MatrixMarket header", 1)
    _, obj, fmt, kind, symmetry = header[:5]
    if obj != "matrix" or fmt != "coordinate":
        raise ParseError("only 'matrix coordinate' files are supported", 1)
    if kind not in ("real", "integer", "pattern"):
        raise ParseError(f"unsupported field type {kind!r}", 1)
    if symmetry != "general":
        raise ParseError(f"unsupported symmetry {symmetry!r}", 1)
    want, n = (2 if kind == "pattern" else 3), None
    for lineno, raw in lines:
        parts = raw.split()
        if not parts or parts[0][0] == "%":
            continue
        if n is None:
            if len(parts) != 3:
                raise ParseError("expected 'rows cols nnz' size line", lineno)
            try:
                n, c, nnz = (int(p) for p in parts)
            except ValueError:
                raise ParseError("bad size line", lineno) from None
            if n < 1 or nnz < 0:
                raise ParseError(f"size line needs rows >= 1 and nnz >= 0, got {n} and {nnz}",
                                 lineno)
            if n != c:
                raise ParseError(f"matrix must be square, got {n}x{c}", lineno)
            size_line = lineno
            continue
        if len(parts) != want:
            raise ParseError(f"expected {want} fields", lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2]) if want == 3 else 1.0
        except ValueError:
            raise ParseError("bad entry", lineno) from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"index ({i},{j}) out of range", lineno)
        vals.append(_weight(w, lineno))
        rows.append(i - 1)
        cols.append(j - 1)
    if n is None:
        raise ParseError("missing size line", lineno)
    if len(vals) != nnz:
        raise ParseError(f"size line declares {nnz} entries, found {len(vals)}", size_line)
    return [str(i + 1) for i in range(n)]


def load_edge_list(source, format: str = "csv") -> WeightedDigraph:
    """Parse bytes, str, or a binary or text stream into a WeightedDigraph
    in one pass: CSV in chunks of about ``_CSV_CHUNK`` bytes of whole lines,
    each parsed as whole arrays when its lines are plain and line by line
    otherwise, Matrix Market line by line (see ``numbered_lines``).  Only a
    chunk or a line is held at a time.

    CSV: one `src,dst[,weight]` edge per line, weight defaulting to 1.0,
    '#' comments ignored, nodes ordered by first appearance.  Matrix Market:
    'coordinate real/integer/pattern general', 1-based indices, node labels
    '1'..'n', as many entries as the size line declares.  Duplicate (i, j)
    entries have their weights summed in both formats.
    """
    if format not in ("csv", "matrix-market"):
        raise InputError(f"unknown edge list format {format!r}")
    rows, cols, vals = array("i"), array("i"), array("d")
    if format == "csv":
        labels = _csv_edges(source, rows, cols, vals)
    else:
        labels = _matrix_market_edges(numbered_lines(source), rows, cols, vals)
    n = len(labels)
    weights = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return WeightedDigraph(n=n, labels=labels, weights=weights)
