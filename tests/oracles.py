"""Independent oracles used to freeze expected values.

These deliberately avoid the code paths they check: hitting probabilities
come from an absorbing-state first-passage solve rather than the inverse
ratio formula, clustering optima come from enumeration, and the quotient
structure checks come from per-node breadth-first search and a per-pair loop
rather than whole-array reachability and row blocks, and the dense CSV
writer and reader format and parse one value at a time through Python
strings and floats, holding the whole file's text, rather than streaming
rows through C-level formatting and parsing, and the submultiplicativity and
triangle checks loop over pivots with one n x n temporary each rather than
sweeping blocks of rows once for every beta, and the stationary solve builds
P^T - I from an identity matrix and lets scipy copy it rather than building
and factoring one buffer in place, and the edge-list loader decodes the
whole source, splits it into a list of lines and builds a list of edge
tuples before labelling the nodes rather than streaming lines into typed
arrays, and the edge-list writer formats each edge's line with one Python
``%`` from three whole-graph lists rather than formatting chunks of edges
in numpy, and the hp similarity and the chung Laplacian are whole-matrix
expressions with their n x n temporaries rather than symmetrized tile by
tile in place or built in two buffers, and the quotient chain multiplies by
a dense n x m class indicator filled one state at a time rather than
summing over classes with a sparse one.
"""

import itertools
from collections import deque
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from hpmetric.errors import InputError, ParseError, StructureError
from hpmetric.graphs import TransitionMatrix, WeightedDigraph
from hpmetric.quotient import OrderedClass, QuotientChain, SegmentLabeling


def oracle_hitting_probability(P: np.ndarray, i: int, j: int) -> float:
    """P_i(reach j before returning to i) by first-step analysis.

    For x outside {i, j} let h[x] be the probability of reaching j before i
    starting from x; h solves (I - R) h = P[rest, j] with R the transition
    block among the remaining states.  Then Q[i, j] = P[i, j] + sum_x
    P[i, x] h[x].
    """
    n = P.shape[0]
    rest = [x for x in range(n) if x not in (i, j)]
    if rest:
        R = P[np.ix_(rest, rest)]
        b = P[rest, j]
        h = np.linalg.solve(np.eye(len(rest)) - R, b)
    else:
        h = np.zeros(0)
    return float(P[i, j] + P[i, rest] @ h)


def oracle_hitting_matrix(P: np.ndarray) -> np.ndarray:
    n = P.shape[0]
    Q = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                Q[i, j] = oracle_hitting_probability(P, i, j)
    return Q


def _solve_exact(A, b) -> list:
    """Solve A x = b by Gauss-Jordan elimination over the rationals."""
    m = len(b)
    rows = [list(A[r]) + [b[r]] for r in range(m)]
    for c in range(m):
        p = next(r for r in range(c, m) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(m):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[m] for row in rows]


def oracle_stationary_lu(P: np.ndarray) -> np.ndarray:
    """phi from G^T phi = 1/n with G = I - P + 11^T/n, solved by scipy out of
    place on a copy of G, then clamped and normalized as
    ``stationary_distribution`` does."""
    n = P.shape[0]
    G = np.subtract(1.0 / n, P)
    G.flat[:: n + 1] += 1.0
    phi = np.maximum(la.solve(G.T, np.full(n, 1.0 / n), assume_a="gen"), 1e-300)
    return phi / phi.sum()


def exact_hitting_matrix(P: np.ndarray) -> np.ndarray:
    """Q by the absorbing-state solve of oracle_hitting_probability, in exact
    rational arithmetic (n <= 8).

    Each float entry of P is taken at its exact binary value, so the result
    is the true Q of the chain the float kernels receive, correctly rounded.
    """
    n = P.shape[0]
    if n > 8:
        raise ValueError("exact oracle is limited to n <= 8")
    F = [[Fraction(float(x)) for x in row] for row in P]
    Q = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rest = [x for x in range(n) if x not in (i, j)]
            h = _solve_exact([[int(a == b) - F[a][b] for b in rest] for a in rest],
                             [F[a][j] for a in rest])
            Q[i, j] = float(F[i][j] + sum(F[i][x] * hx for x, hx in zip(rest, h)))
    return Q


def oracle_best_two_partition(points) -> set:
    """Minimal-inertia 2-partition of 1-d points by enumeration."""
    points = list(points)
    n = len(points)
    best, best_cost = None, np.inf
    for bits in range(1, 2**n - 1):
        groups = ([], [])
        for t, x in enumerate(points):
            groups[(bits >> t) & 1].append(x)
        cost = sum(
            sum((x - np.mean(g)) ** 2 for x in g) for g in groups if g
        )
        if cost < best_cost:
            best_cost = cost
            best = frozenset(frozenset(g) for g in groups)
    return best


def oracle_one_median(D: np.ndarray) -> int:
    """Index minimizing the total distance to all points."""
    return int(np.argmin(D.sum(axis=0)))


def oracle_purity(labels, truth, k) -> float:
    best = 0.0
    for perm in itertools.permutations(range(k)):
        matched = sum(1 for a, b in zip(labels, truth) if perm[a] == b)
        best = max(best, matched / len(truth))
    return best


def _first_members_reached(adj, source: int, member_set: frozenset) -> set:
    """Class members reachable from `source` without passing through any
    class member on the way.  The source itself may be a member; reaching it
    again counts."""
    reached = set()
    seen = {source}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w in member_set:
                reached.add(w)
            elif w not in seen:
                seen.add(w)
                queue.append(w)
    return reached


def _adjacency(P: np.ndarray) -> list:
    return [np.nonzero(P[i] > 0.0)[0].tolist() for i in range(P.shape[0])]


def oracle_order_class(tm, members) -> OrderedClass:
    """hpmetric.quotient.order_class by one breadth-first search per member."""
    members = sorted(members)
    if len(members) <= 1:
        return OrderedClass(members=list(members))
    adj = _adjacency(tm.P)
    member_set = frozenset(members)
    order = [members[0]]
    current = members[0]
    for _ in range(len(members)):
        nxt = _first_members_reached(adj, current, member_set)
        if len(nxt) != 1:
            raise StructureError(
                f"member {tm.labels[current]!r} has {len(nxt)} successors in the "
                "class; the set is not a genuine equivalence class"
            )
        (succ,) = nxt
        if succ == members[0]:
            if len(order) != len(members):
                raise StructureError(
                    "commute order closed before visiting every member"
                )
            return OrderedClass(members=order)
        if succ in order:
            raise StructureError(
                f"member {tm.labels[succ]!r} revisited before the cycle closed"
            )
        order.append(succ)
        current = succ
    raise StructureError("commute order failed to close")


def oracle_segments(tm, cls) -> SegmentLabeling:
    """hpmetric.quotient.segments by one breadth-first search per outside node."""
    adj = _adjacency(tm.P)
    member_set = frozenset(cls.members)
    position = {m: k for k, m in enumerate(cls.members)}
    labels = {}
    for node in range(tm.n):
        if node in member_set:
            continue
        reached = _first_members_reached(adj, node, member_set)
        if len(reached) != 1:
            raise StructureError(
                f"node {tm.labels[node]!r} reaches {len(reached)} distinct class "
                "members first; segments are not well defined"
            )
        (m,) = reached
        labels[node] = position[m]
    return SegmentLabeling(members=list(cls.members), labels=labels)


def _segment_signature(node: int, labelings: list) -> tuple:
    sig = []
    for lab in labelings:
        if node in lab.labels:
            sig.append(("s", lab.labels[node]))
        else:
            sig.append(("m", lab.members.index(node)))
    return tuple(sig)


def oracle_quotient_bounds(dist, dist_prime, quotient, labelings: list,
                              tol: float = 1e-9) -> dict:
    """hpmetric.quotient.check_quotient_bounds by a loop over pairs i < j."""
    D = dist.D
    Dp = dist_prime.D
    class_map = quotient.class_map
    sizes = [len(c) for c in quotient.classes]
    n = D.shape[0]

    sigs = [_segment_signature(i, labelings) for i in range(n)]
    member_sets = [frozenset(lab.members) for lab in labelings]

    violations = []
    max_isometry_err = 0.0
    pairs = same_segment = 0
    log2 = np.log(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = class_map[i], class_map[j]
            if a == b:
                continue
            pairs += 1
            d = D[i, j]
            dp = Dp[a, b]
            if sigs[i] == sigs[j]:
                same_segment += 1
                err = abs(d - dp)
                max_isometry_err = max(max_isometry_err, err)
                if err > tol:
                    violations.append((i, j, "isometry", err))
                continue
            c = 0
            for lab, mset in zip(labelings, member_sets):
                if i in mset or j in mset:
                    continue
                if lab.labels[i] != lab.labels[j]:
                    c += 1
            upper = d + 0.5 * np.log(sizes[a] * sizes[b]) + c * log2
            if not dp > d:
                violations.append((i, j, "lower", dp - d))
            if dp > upper + tol:
                violations.append((i, j, "upper", dp - upper))

    return {
        "ok": not violations,
        "pairs_checked": pairs,
        "same_segment_pairs": same_segment,
        "max_isometry_error": max_isometry_err,
        "violations": violations,
    }


def oracle_quotient_chain(tm, phi, partition) -> QuotientChain:
    """hpmetric.quotient.quotient_chain by two dense products with the n x m
    0/1 indicator S: phi' = S^T phi and P' = S^T ((phi o P) S) / phi'."""
    n = tm.n
    classes = sorted((sorted(c) for c in partition), key=lambda c: c[0])
    covered = [i for c in classes for i in c]
    if sorted(covered) != list(range(n)):
        raise StructureError("partition must cover every state exactly once")

    m = len(classes)
    class_map = [0] * n
    for u, cls in enumerate(classes):
        for i in cls:
            class_map[i] = u
    S = np.zeros((n, m))
    for i, u in enumerate(class_map):
        S[i, u] = 1.0

    p = phi.phi
    phi_prime = S.T @ p
    weighted = (p[:, None] * tm.P) @ S  # phi_i * P[i, V]
    P_prime = (S.T @ weighted) / phi_prime[:, None]
    labels = ["+".join(str(tm.labels[i]) for i in cls) for cls in classes]
    chain = TransitionMatrix(n=m, P=P_prime, labels=labels)
    return QuotientChain(chain=chain, classes=classes, class_map=class_map,
                         phi_prime=phi_prime)


def oracle_hp_similarity(Q: np.ndarray, phi: np.ndarray, beta: float):
    """(A, asymmetry): A_ij = phi_i^beta phi_j^(beta - 1) Q_ij with a unit
    diagonal, its max |A - A^T|, and then (A + A^T) / 2, set to exactly 1 at
    beta = 1/2 where Q_ij = Q_ji = 1."""
    A = np.multiply.outer(phi**beta, phi ** (beta - 1.0))
    A *= Q
    np.fill_diagonal(A, 1.0)
    asym = float(np.abs(A - A.T).max())
    A = (A + A.T) / 2.0
    if beta == 0.5:
        A[(Q == 1.0) & (Q.T == 1.0)] = 1.0
    return A, asym


def oracle_chung_laplacian(P: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """I - (T + T^T) / 2 with T = Phi^{1/2} P Phi^{-1/2}."""
    s = np.sqrt(phi)
    T = (s[:, None] * P) / s[None, :]
    return np.eye(P.shape[0]) - (T + T.T) / 2.0


def oracle_write_dense_csv(path, M, labels) -> None:
    """Header of labels, then each value as ``"{:.17g}".format(float(x))``;
    the file's text is joined in memory and written at once."""
    lines = [",".join(str(l) for l in labels)]
    for row in np.asarray(M):
        lines.append(",".join("{:.17g}".format(float(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def oracle_write_edge_csv(path, g: WeightedDigraph) -> None:
    """``src,dst,weight`` per stored edge of ``g.weights.tocoo()``, the
    weight as ``%.17g``; an edgeless graph is one empty line."""
    coo = g.weights.tocoo()
    with open(path, "w", encoding="utf-8") as fh:
        for i, j, w in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()):
            fh.write("%s,%s,%.17g\n" % (g.labels[i], g.labels[j], w))
        if coo.nnz == 0:
            fh.write("\n")


def oracle_write_column_csv(path, labels, columns) -> None:
    """Header ``label,<names>``, then one row per label: Python and numpy
    floats and Python ints as ``"{:.17g}".format(float(x))``, anything else
    as ``str``."""
    names = list(columns)
    lines = ["label," + ",".join(names)]
    for i, lab in enumerate(labels):
        vals = []
        for name in names:
            v = columns[name][i]
            if isinstance(v, (int, float, np.floating)):
                vals.append("{:.17g}".format(float(v)))
            else:
                vals.append(str(v))
        lines.append(f"{lab}," + ",".join(vals))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def oracle_read_dense_csv(path):
    """Parse every value with Python ``float`` after skipping blank and ``#``
    lines; the first kept line is the labels."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [l for l in text.splitlines() if l.strip() and not l.startswith("#")]
    if not lines:
        raise ParseError("empty matrix file", 1)
    labels = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        vals = line.split(",")
        if len(vals) != len(labels):
            raise ParseError(f"expected {len(labels)} values")
        rows.append([float(v) for v in vals])
    return np.array(rows), labels


def oracle_submultiplicativity_slack(Q: np.ndarray) -> float:
    """Worst violation of Q[i,j] >= Q[i,k] Q[k,j] over distinct triples."""
    n = Q.shape[0]
    worst = -np.inf
    mask_diag = np.eye(n, dtype=bool)
    for k in range(n):
        viol = np.outer(Q[:, k], Q[k, :]) - Q
        viol[k, :] = -np.inf
        viol[:, k] = -np.inf
        viol[mask_diag] = -np.inf
        worst = max(worst, float(viol.max()))
    return worst


def oracle_triangle_slack(D: np.ndarray) -> float:
    """Worst D[i, j] - (D[i, k] + D[k, j]) over every triple, repeated
    indices included."""
    n = D.shape[0]
    worst_tri = -np.inf
    for k in range(n):
        viol = D - (D[:, k][:, None] + D[k, :][None, :])
        worst_tri = max(worst_tri, float(viol.max()))
    return worst_tri


def _oracle_csv_edges(text: str):
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


def _oracle_load_csv(text: str) -> WeightedDigraph:
    edges = _oracle_csv_edges(text)
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


def _oracle_load_matrix_market(text: str) -> WeightedDigraph:
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


def oracle_load_edge_list(source, format: str = "csv") -> WeightedDigraph:
    """The edge-list loader ``graphs.load_edge_list`` streams: the whole
    source is read and decoded, split by ``str.splitlines`` and turned into
    edge tuples before any node is labelled.  It does not check a Matrix
    Market file's entry count."""
    data = source.read() if hasattr(source, "read") else source
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    if format == "csv":
        return _oracle_load_csv(text)
    return _oracle_load_matrix_market(text)
