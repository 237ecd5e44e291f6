"""Structure theory of zero-distance classes and the quotient chain.

States at distance zero under the beta = 1/2 pseudo-metric form equivalence
classes that every commute must traverse in a fixed cyclic order.  Outside
nodes fall between consecutive class members (segments); collapsing classes
into single states yields a quotient chain whose distance is a true metric
and relates to the original by explicit bounds.

The first member each node reaches comes from one reverse breadth-first
search per class member over the support with the members' out-edges cut;
the commute order and the segments are read off that table.  The bounds are
checked as whole arrays over pairs, in blocks of rows so that the
temporaries stay within one n-by-n float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import StructureError
from .graphs import TransitionMatrix
from .metric import DegeneracyReport
from .stationary import StationaryDistribution


@dataclass(frozen=True)
class OrderedClass:
    members: list  # commute order starting from the smallest member


@dataclass(frozen=True)
class SegmentLabeling:
    """For each node outside the class, the index k of the first class member
    every walk reaches, placing the node between members k-1 and k."""

    members: list
    labels: dict  # outside node -> k


@dataclass(frozen=True)
class QuotientChain:
    chain: TransitionMatrix
    classes: list  # member lists defining the quotient state order
    class_map: list  # original node -> quotient state
    phi_prime: np.ndarray
    # Commute orders of the non-singleton classes, when the quotient was
    # built from a degeneracy report (which validates each class by ordering it).
    orders: list = field(default_factory=list)


def _first_members(P: np.ndarray, members) -> np.ndarray:
    """(n, k) bool: entry [v, t] is True iff some walk from v reaches
    ``members[t]`` before any other member.

    A walk from a member starts by leaving it, so reaching itself again
    counts (a genuine class member never can).  With the members' out-edges
    cut, one breadth-first search per member over the reversed support finds
    every node with a member-free path into it; member rows then take one
    more step through their own out-edges.
    """
    into = P.T > 0.0  # into[w, v]: the edge v -> w, reversed
    into[:, members] = False
    # float64 CSR is csgraph's own format, so it is not converted again.
    dist = csgraph.shortest_path(sp.csr_matrix(into, dtype=float), unweighted=True,
                                 indices=members)
    first = np.isfinite(dist.T)  # member rows: only the member itself
    # Each member row becomes the OR of its out-neighbours' rows; every row
    # of a stochastic P has at least one out-edge, so no group is empty.
    src, dst = np.nonzero(P[members] > 0.0)
    first[members] = np.logical_or.reduceat(first[dst],
                                            np.searchsorted(src, np.arange(len(members))))
    return first


def order_class(tm: TransitionMatrix, members) -> OrderedClass:
    """Recover the cyclic commute order of an equivalence class.

    Starting from the smallest member, the successor of each member is the
    unique member reachable without passing through any other; a member with
    no or several such successors means the input was not a genuine class.
    Otherwise the walk visits every member once and closes on the start,
    since the chain is strongly connected: every walk from a member it cycles
    through first meets the next one, so a cycle that closed early or on a
    later member would leave some member unreachable.
    """
    members = sorted(members)
    if len(members) <= 1:
        return OrderedClass(members=list(members))
    first = _first_members(tm.P, members)
    order = [members[0]]
    while True:
        nxt = np.flatnonzero(first[order[-1]])
        if len(nxt) != 1:
            raise StructureError(
                f"member {tm.labels[order[-1]]!r} has {len(nxt)} successors in the "
                "class; the set is not a genuine equivalence class"
            )
        succ = members[nxt[0]]
        if succ == members[0]:
            return OrderedClass(members=order)
        order.append(succ)


def segments(tm: TransitionMatrix, cls: OrderedClass) -> SegmentLabeling:
    """Assign each outside node the index of the first class member every
    walk from it must reach."""
    first = _first_members(tm.P, cls.members)
    outside = np.flatnonzero(~np.isin(np.arange(tm.n), cls.members))
    reached = first[outside]
    counts = reached.sum(axis=1)
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        raise StructureError(
            f"node {tm.labels[outside[bad[0]]]!r} reaches {counts[bad[0]]} distinct class "
            "members first; segments are not well defined"
        )
    labels = dict(zip(outside.tolist(), reached.argmax(axis=1).tolist()))
    return SegmentLabeling(members=list(cls.members), labels=labels)


def quotient_chain(tm: TransitionMatrix, phi: StationaryDistribution, partition) -> QuotientChain:
    """Collapse each class to one state with stationary-weighted transitions.

    P'[U, V] = (1/phi_U) * sum_{i in U} phi_i * sum_{j in V} P[i, j];
    phi'[U] = sum_{i in U} phi_i.
    """
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


def quotient_from_report(tm: TransitionMatrix, phi: StationaryDistribution,
                         report: DegeneracyReport) -> QuotientChain:
    """Quotient by the detected zero-distance classes, re-validating each
    non-singleton class structurally first.  The commute orders found on the
    way are kept on the result, in ``report.non_singleton()`` order."""
    orders = [order_class(tm, cls) for cls in report.non_singleton()]
    return replace(quotient_chain(tm, phi, report.classes), orders=orders)


def _codes(n: int, labelings: list) -> np.ndarray:
    """(n, len(labelings)) int: a node's code under a labeling is its segment
    index k when it lies outside the class and -1 - position when it is a
    member.  Two nodes share an absolute segment iff their rows are equal."""
    codes = np.empty((n, len(labelings)), dtype=np.intp)
    for t, lab in enumerate(labelings):
        codes[list(lab.labels), t] = list(lab.labels.values())
        codes[lab.members, t] = -1 - np.arange(len(lab.members))
    return codes


def _segment_ids(codes: np.ndarray) -> np.ndarray:
    """Per node, an id shared exactly by the nodes in its absolute segment."""
    return np.unique(codes, axis=0, return_inverse=True)[1].ravel()


def absolute_segments(tm: TransitionMatrix, labelings: list) -> list:
    """Group nodes by their segment position with respect to every
    non-singleton class.  With no labelings, all nodes share one segment."""
    ids = _segment_ids(_codes(tm.n, labelings))
    order = np.argsort(ids, kind="stable")
    cuts = np.flatnonzero(np.diff(ids[order])) + 1
    return sorted((g.tolist() for g in np.split(order, cuts)), key=lambda g: g[0])


def check_quotient_bounds(dist, dist_prime, quotient: QuotientChain,
                          labelings: list, tol: float = 1e-9) -> dict:
    """Verify the distance relations between a chain and its quotient.

    For i, j in distinct classes alpha, beta: if they share an absolute
    segment, distances agree within ``tol``; otherwise
    D[i, j] < D'[alpha, beta] <= D[i, j] + 0.5*log(|alpha||beta|) + c*log 2
    with c the number of other classes whose segments separate i and j.

    Pairs i < j are tested as whole arrays, a block of rows at a time: about
    eight block-by-n temporaries are alive at once, so n // 8 rows keep them
    within one n-by-n float64.  Violations come in (i, j) order, "lower"
    before "upper" for the same pair.
    """
    D = dist.D
    Dp = dist_prime.D
    n = D.shape[0]
    cm = np.asarray(quotient.class_map)
    codes = _codes(n, labelings)
    ids = _segment_ids(codes)
    # 0.5 log(|alpha||beta|), tabled over distinct class sizes: a table over
    # class pairs would be m x m, as large as D when every class is a singleton.
    sizes, size_of = np.unique([len(c) for c in quotient.classes], return_inverse=True)
    half_log = 0.5 * np.log(np.multiply.outer(sizes, sizes))
    size_of = size_of.ravel()[cm]
    log2 = np.log(2.0)

    kinds = np.array(["isometry", "lower", "upper"])
    violations = []
    max_isometry_err = 0.0
    pairs = same_segment = 0
    step = max(1, n // 8)
    for r0 in range(0, n, step):
        rows = np.arange(r0, min(r0 + step, n))
        d = D[r0:r0 + step]
        dp = Dp[np.ix_(cm[rows], cm)]
        tested = (rows[:, None] < np.arange(n)) & (cm[rows, None] != cm)
        same = ids[rows, None] == ids
        isometric = tested & same
        cross = tested & ~same
        pairs += int(np.count_nonzero(tested))
        same_segment += int(np.count_nonzero(isometric))

        err = np.abs(d - dp)
        max_isometry_err = max(max_isometry_err, float(err.max(where=isometric, initial=0.0)))
        c = np.zeros(d.shape, dtype=np.intp)
        for code in codes.T:
            ci = code[rows, None]
            c += (ci >= 0) & (code >= 0) & (ci != code)
        upper = d + half_log[np.ix_(size_of[rows], size_of)] + c * log2

        bad = (isometric & (err > tol), cross & ~(dp > d), cross & (dp > upper + tol))
        # One sort key per violation, flat index * 3 + kind: (i, j, kind) order.
        key = np.sort(np.concatenate([np.flatnonzero(b) * 3 + k for k, b in enumerate(bad)]))
        (i, j), kind = np.divmod(key // 3, n), key % 3
        value = np.select([kind == 0, kind == 1],
                          [err[i, j], dp[i, j] - d[i, j]], dp[i, j] - upper[i, j])
        violations.extend(zip((r0 + i).tolist(), j.tolist(), kinds[kind].tolist(),
                              value.tolist()))

    return {
        "ok": not violations,
        "pairs_checked": pairs,
        "same_segment_pairs": same_segment,
        "max_isometry_error": max_isometry_err,
        "violations": violations,
    }
