"""Weighted digraph ingestion, strongly connected components, row normalization.

Graphs are held sparse (CSR) on ingest; transition matrices are materialized
dense because every downstream kernel is dense O(n^3).  Dense materialization
is refused above ``DENSE_LIMIT`` nodes.
"""

from __future__ import annotations

import functools
import io
import math
import re
from array import array
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

    ``weights[i, j]`` is the weight of the edge i -> j (CSR sparse).
    """

    n: int
    labels: list
    weights: sp.csr_matrix

    def __post_init__(self):
        w = self.weights
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


def make_digraph(weights, labels=None) -> WeightedDigraph:
    """Build a WeightedDigraph from a dense or sparse weight matrix."""
    w = sp.csr_matrix(weights, dtype=float)
    w.eliminate_zeros()
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
        comps = strongly_connected_components(P > 0.0)
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

    Returns components as lists of node indices; within each component
    indices are sorted ascending.
    """
    count, labels = connected_components(sp.csr_matrix(support), directed=True,
                                         connection="strong")
    order = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels, minlength=count)).tolist()
    return [order[start:end] for start, end in zip([0, *ends[:-1]], ends)]


def largest_scc(g: WeightedDigraph):
    """Restrict to the largest strongly connected component.

    Ties are broken by the smallest minimum original node index.  Returns the
    restricted graph and the index map {old: new} for retained nodes.
    """
    if g.n == 0:
        raise InputError("graph is empty")
    comps = strongly_connected_components(g.weights)
    best = max(comps, key=lambda c: (len(c), -min(c)))
    keep = sorted(best)
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


def _numbered_lines(source):
    """(number, text) of each line of bytes, str, or a binary or text stream,
    ended by \\n, \\r\\n or \\r as a text file reads them.  Bytes are
    decoded as UTF-8 one line at a time: the whole text is never held."""
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    elif isinstance(source, str):
        source = (m[0] for m in re.finditer(r".*\n|.+", source))
    lineno = 0
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


def _csv_edges(lines, rows: array, cols: array, vals: array) -> list:
    """Append each CSV edge to rows, cols and vals; return the node labels."""
    index = {}
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
        rows.append(index.setdefault(src, len(index)))
        cols.append(index.setdefault(dst, len(index)))
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
    in one pass over its lines (see ``_numbered_lines``).

    CSV: one `src,dst[,weight]` edge per line, weight defaulting to 1.0,
    '#' comments ignored, nodes ordered by first appearance.  Matrix Market:
    'coordinate real/integer/pattern general', 1-based indices, node labels
    '1'..'n', as many entries as the size line declares.  Duplicate (i, j)
    entries have their weights summed in both formats.
    """
    edges = {"csv": _csv_edges, "matrix-market": _matrix_market_edges}.get(format)
    if edges is None:
        raise InputError(f"unknown edge list format {format!r}")
    rows, cols, vals = array("i"), array("i"), array("d")
    labels = edges(_numbered_lines(source), rows, cols, vals)
    n = len(labels)
    weights = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return WeightedDigraph(n=n, labels=labels, weights=weights)
