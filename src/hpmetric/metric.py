"""Normalized hitting-probability similarity and the -log distance.

The similarity A[i, j] = phi_i^beta / phi_j^(1-beta) * Q[i, j] is symmetric
by the detailed-balance identity Q[i, j] phi_i = Q[j, i] phi_j; the distance
D = -log A is a metric for beta in (1/2, 1] and a pseudo-metric at
beta = 1/2, where pairs with Q[i, j] = Q[j, i] = 1 collapse to distance 0.
Those are exactly the pairs where ``hitting_fast`` writes Q = 1.0 in both
directions, so degeneracy is read off Q by exact comparison.
The triangle slack D[i, j] - D[i, k] - D[k, j] of d_beta is that of d_beta0
plus 2 (beta - beta0) log phi_k, so one ``pivot_maxima`` sweep (worst slack
per pivot k) checks every triple at every beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, StructureError
from .graphs import strongly_connected_components
from .hitting import HittingProbabilities, mirror_tiles
from .stationary import StationaryDistribution

SYMMETRY_CONSISTENCY_TOL = 1e-8


@dataclass(frozen=True)
class HpSimilarity:
    beta: float
    A: np.ndarray
    asymmetry: float  # max |A - A^T| before explicit symmetrization

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class HpDistance:
    beta: float
    D: np.ndarray
    is_pseudo: bool


@dataclass(frozen=True)
class DegeneracyReport:
    classes: list  # partition of range(n), ordered by smallest member
    degenerate: bool

    def non_singleton(self) -> list:
        return [c for c in self.classes if len(c) > 1]


def _q_matrix(Q) -> np.ndarray:
    if isinstance(Q, HittingProbabilities):
        return Q.Q
    return np.asarray(Q, dtype=float)


def hp_similarity(Q, phi: StationaryDistribution, beta: float) -> HpSimilarity:
    """Build the similarity matrix at the given finite beta >= 1/2.

    The result is explicitly symmetrized as (A + A^T)/2; the asymmetry before
    symmetrization is recorded and must be tiny, otherwise Q and phi do not
    come from the same chain.  At beta = 1/2, A is exactly 1 on the pairs
    with Q[i, j] = Q[j, i] = 1.0, the degenerate ones.
    """
    if not 0.5 <= beta < np.inf:  # also false for NaN
        raise InputError(f"beta must be finite and >= 0.5, got {beta}")
    Qm = _q_matrix(Q)
    p = phi.phi
    A = np.multiply.outer(p**beta, p ** (beta - 1.0))
    A *= Qm
    np.fill_diagonal(A, 1.0)
    # In place, one tile and its mirror at a time, so the only scratch is
    # one tile: first |A - A^T| there, then (A + A^T) / 2.
    n, tile = A.shape[0], 256
    buf = np.empty((min(n, tile), min(n, tile)))
    asym = 0.0
    for rows, cols in mirror_tiles(n, tile):
        upper, lower = A[rows, cols], A[cols, rows].T
        d = buf[: upper.shape[0], : upper.shape[1]]
        np.subtract(upper, lower, out=d)
        np.abs(d, out=d)
        asym = np.maximum(asym, d.max())
        np.add(upper, lower, out=d)
        d /= 2.0
        upper[...] = d
        lower[...] = d
    asym = float(asym)
    if beta == 0.5:
        ones = Qm == 1.0
        if ones.any():
            A[ones & ones.T] = 1.0
    if asym > SYMMETRY_CONSISTENCY_TOL:
        raise NumericalError(
            f"similarity asymmetry {asym:.3e} exceeds {SYMMETRY_CONSISTENCY_TOL:.0e}; "
            "Q and phi are inconsistent"
        )
    if beta == 0.5 and A.max() > 1.0 + 1e-12:
        raise NumericalError(
            f"similarity at beta=1/2 exceeds 1 by {A.max() - 1.0:.3e}"
        )
    return HpSimilarity(beta=beta, A=A, asymmetry=asym)


def hp_distance(sim: HpSimilarity) -> HpDistance:
    """D = -log A.  Entries equal to 1 map to exactly 0.

    ``is_pseudo`` is set iff beta = 1/2 and some off-diagonal distance is 0.
    """
    A = sim.A
    if A.min() <= 0.0:
        raise InputError("similarity entries must be positive")
    # In place in one n x n buffer: the only other temporary is the bool
    # comparison below.
    D = np.log(A)
    np.negative(D, out=D)
    D += 0.0  # fold -0.0 into +0.0
    np.fill_diagonal(D, 0.0)
    # A zero beyond the n on the diagonal lies off it.
    is_pseudo = sim.beta == 0.5 and bool(np.count_nonzero(D == 0.0) > D.shape[0])
    return HpDistance(beta=sim.beta, D=D, is_pseudo=is_pseudo)


def pivot_maxima(M: np.ndarray, combine) -> np.ndarray:
    """w[k] = max of combine(M[i, k], M[k, j]) - M[i, j] over i != j, k not in {i, j}.

    ``combine`` is a binary ufunc (np.multiply for submultiplicativity of Q,
    np.add on -D for the triangle inequality of D).  Pivots with no such
    triple (n < 3) get -inf.  The sweep runs over blocks of rows, each block
    against every pivot, in one scratch buffer of about 2^16 entries.
    """
    n = M.shape[0]
    rows = max(1, 2**16 // n)
    buf = np.empty((rows, n))
    w = np.full(n, -np.inf)
    w_block = np.empty(n)
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        b, block = buf[: i1 - i0], M[i0:i1]
        diag = (np.arange(i1 - i0), np.arange(i0, i1))
        for k in range(n):
            combine.outer(block[:, k], M[k], out=b)
            b -= block
            b[diag] = -np.inf
            b[:, k] = -np.inf
            if i0 <= k < i1:
                b[k - i0] = -np.inf
            w_block[k] = b.max()
        np.maximum(w, w_block, out=w)
    return w


def repeated_index_slack(D: np.ndarray) -> float:
    """Worst D[i, j] - (D[i, k] + D[k, j]) over the triples with k = i, k = j
    or i = j, which ``pivot_maxima`` leaves out.  With a zero diagonal the
    first two are 0 and the third is -(D[i, k] + D[k, i]).
    """
    d = np.diag(D)
    return float(max((D - (d[:, None] + D)).max(), (D - (D + d)).max(),
                     (d[:, None] - (D + D.T)).max()))


def axiom_report(D: np.ndarray, worst_tri: float, tol: float) -> dict:
    """The axiom report of ``verify_metric_axioms`` for D, given its worst
    triangle slack."""
    n = D.shape[0]
    worst_sym = float(np.abs(D - D.T).max())
    off = ~np.eye(n, dtype=bool)
    min_off = float(D[off].min()) if n > 1 else np.inf
    return {
        "symmetry_ok": worst_sym <= tol,
        "triangle_ok": worst_tri <= tol,
        "positivity_ok": bool(min_off > 0.0),
        "worst_violations": {
            "symmetry": worst_sym,
            "triangle": worst_tri,
            "min_off_diagonal": min_off,
        },
    }


def verify_metric_axioms(dist: HpDistance, tol: float = 1e-9) -> dict:
    """Check symmetry, triangle inequality, and off-diagonal positivity.

    Every pair and every triple is checked, at every n: one ``pivot_maxima``
    sweep covers the triples of distinct indices, and ``repeated_index_slack``
    the rest.  Returns a report with per-axiom booleans (at tolerance ``tol``)
    and the worst observed slack, so callers can apply stricter thresholds.
    """
    D = dist.D
    worst_tri = max(float(pivot_maxima(-D, np.add).max()), repeated_index_slack(D))
    return axiom_report(D, worst_tri, tol)


def degenerate_pairs(Q, phi: StationaryDistribution) -> DegeneracyReport:
    """Group states into equivalence classes of the zero-distance relation.

    States i, j are related when Q[i, j] = Q[j, i] = 1.0 exactly, which
    ``hitting_fast`` certifies from the graph; classes are the transitive
    closure.  For Q from ``hitting_fast`` the relation is transitive and
    phi is constant on each class, both by theorem.  The closure is checked
    all the same, since Q may be built by hand: a within-class pair with
    Q != 1 is a ``StructureError``, and a stationary mass that varies inside
    a class by more than 1e-8 relative is a ``NumericalError`` (phi is
    inaccurate).
    """
    Qm = _q_matrix(Q)
    related = Qm == 1.0
    related &= related.T
    np.fill_diagonal(related, False)
    if not related.any():
        classes = [[k] for k in range(Qm.shape[0])]
    else:
        # The relation is symmetric, so its strong components are the connected ones.
        classes = sorted(strongly_connected_components(related), key=lambda c: c[0])

    p = phi.phi
    for cls in classes:
        if len(cls) == 1:
            continue
        sub = Qm[np.ix_(cls, cls)].copy()
        np.fill_diagonal(sub, 1.0)
        if not (sub == 1.0).all():
            raise StructureError("degenerate pairs are not transitive: "
                                 "some pair inside a class has Q != 1")
        spread = float(p[cls].max() - p[cls].min())
        if spread > 1e-8 * float(p[cls].max()):
            raise NumericalError(
                f"stationary mass varies by {spread:.3e} inside a degenerate "
                "class; phi is inaccurate"
            )

    degenerate = any(len(c) > 1 for c in classes)
    return DegeneracyReport(classes=classes, degenerate=degenerate)
