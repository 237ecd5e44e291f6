"""Weighted digraph ingestion, strongly connected components, row normalization.

Graphs are held sparse (CSR) on ingest; transition matrices are materialized
dense because every downstream kernel is dense O(n^3).  Dense materialization
is refused above ``DENSE_LIMIT`` nodes.
"""

from __future__ import annotations

import functools
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


def _parse_csv_edges(text: str):
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) == 2:
            src, dst, weight = parts[0], parts[1], "1.0"
        elif len(parts) == 3:
            src, dst, weight = parts
        else:
            raise ParseError(f"expected 'src,dst[,weight]', got {raw!r}", lineno)
        if not src or not dst:
            raise ParseError("empty node label", lineno)
        try:
            w = float(weight)
        except ValueError:
            raise ParseError(f"bad weight {weight!r}", lineno) from None
        if not np.isfinite(w):
            raise ParseError(f"non-finite weight {weight!r}", lineno)
        if w < 0:
            raise InputError(f"line {lineno}: negative weight {w}")
        edges.append((src, dst, w))
    return edges


def _load_csv(text: str) -> WeightedDigraph:
    edges = _parse_csv_edges(text)
    labels = []
    index = {}
    for src, dst, _ in edges:
        for lab in (src, dst):
            if lab not in index:
                index[lab] = len(labels)
                labels.append(lab)
    n = len(labels)
    if n == 0:
        raise InputError("edge list contains no edges")
    rows = [index[s] for s, _, _ in edges]
    cols = [index[d] for _, d, _ in edges]
    vals = [w for _, _, w in edges]
    weights = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return WeightedDigraph(n=n, labels=labels, weights=weights)


def _load_matrix_market(text: str) -> WeightedDigraph:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty file", 1)
    header = lines[0].lower().split()
    if len(header) < 5 or header[0] not in ("%%matrixmarket", "%matrixmarket"):
        raise ParseError("missing MatrixMarket header", 1)
    _, obj, fmt, kind, symmetry = header[:5]
    if obj != "matrix" or fmt != "coordinate":
        raise ParseError("only 'matrix coordinate' files are supported", 1)
    if kind not in ("real", "integer", "pattern"):
        raise ParseError(f"unsupported field type {kind!r}", 1)
    if symmetry != "general":
        raise ParseError(f"unsupported symmetry {symmetry!r}", 1)
    pattern = kind == "pattern"

    dims = None
    entries = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if dims is None:
            if len(parts) != 3:
                raise ParseError("expected 'rows cols nnz' size line", lineno)
            try:
                r, c, nnz = (int(p) for p in parts)
            except ValueError:
                raise ParseError("bad size line", lineno) from None
            if r != c:
                raise ParseError(f"matrix must be square, got {r}x{c}", lineno)
            dims = (r, nnz)
            continue
        want = 2 if pattern else 3
        if len(parts) != want:
            raise ParseError(f"expected {want} fields", lineno)
        try:
            i = int(parts[0])
            j = int(parts[1])
            w = 1.0 if pattern else float(parts[2])
        except ValueError:
            raise ParseError("bad entry", lineno) from None
        if not (1 <= i <= dims[0] and 1 <= j <= dims[0]):
            raise ParseError(f"index ({i},{j}) out of range", lineno)
        if not np.isfinite(w):
            raise ParseError("non-finite weight", lineno)
        if w < 0:
            raise InputError(f"line {lineno}: negative weight {w}")
        entries.append((i - 1, j - 1, w))
    if dims is None:
        raise ParseError("missing size line", len(lines))
    n = dims[0]
    rows = [e[0] for e in entries]
    cols = [e[1] for e in entries]
    vals = [e[2] for e in entries]
    weights = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    labels = [str(i + 1) for i in range(n)]
    return WeightedDigraph(n=n, labels=labels, weights=weights)


def load_edge_list(source, format: str = "csv") -> WeightedDigraph:
    """Parse a byte stream (or bytes/str) into a WeightedDigraph.

    CSV: one `src,dst[,weight]` edge per line, weight defaulting to 1.0,
    '#' comments ignored, nodes ordered by first appearance.  Matrix Market:
    'coordinate real/integer/pattern general', 1-based indices, node labels
    '1'..'n'.  Duplicate (i, j) entries have their weights summed in both
    formats.
    """
    if hasattr(source, "read"):
        data = source.read()
    else:
        data = source
    if isinstance(data, bytes):
        text = data.decode("utf-8")
    else:
        text = data
    if format == "csv":
        return _load_csv(text)
    if format in ("matrix-market", "mm", "mtx"):
        return _load_matrix_market(text)
    raise InputError(f"unknown edge list format {format!r}")
