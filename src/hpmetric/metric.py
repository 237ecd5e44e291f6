"""Normalized hitting-probability similarity and the -log distance.

The similarity A[i, j] = phi_i^beta / phi_j^(1-beta) * Q[i, j] is symmetric
by the detailed-balance identity Q[i, j] phi_i = Q[j, i] phi_j; the distance
D = -log A is a metric for beta in (1/2, 1] and a pseudo-metric at
beta = 1/2, where pairs with Q[i, j] = Q[j, i] = 1 collapse to distance 0.
The triangle slack D[i, j] - D[i, k] - D[k, j] of d_beta is that of d_beta0
plus 2 (beta - beta0) log phi_k, so one ``pivot_maxima`` sweep (worst slack
per pivot k) checks every triple at every beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, ToleranceError
from .graphs import strongly_connected_components
from .hitting import HittingProbabilities
from .stationary import StationaryDistribution

TOL_DEG = 1e-9

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

    @property
    def n(self) -> int:
        return self.D.shape[0]


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
    come from the same chain.
    """
    if not 0.5 <= beta < np.inf:  # also false for NaN
        raise InputError(f"beta must be finite and >= 0.5, got {beta}")
    Qm = _q_matrix(Q)
    p = phi.phi
    A = np.multiply.outer(p**beta, p ** (beta - 1.0))
    A *= Qm
    np.fill_diagonal(A, 1.0)
    # One n x n buffer: first |A - A^T|, then (A + A^T) / 2.
    S = np.subtract(A, A.T)
    np.abs(S, out=S)
    asym = float(S.max())
    if asym > SYMMETRY_CONSISTENCY_TOL:
        raise NumericalError(
            f"similarity asymmetry {asym:.3e} exceeds {SYMMETRY_CONSISTENCY_TOL:.0e}; "
            "Q and phi are inconsistent"
        )
    A = np.add(A, A.T, out=S)
    A /= 2.0
    if beta == 0.5 and A.max() > 1.0 + 1e-12:
        raise NumericalError(
            f"similarity at beta=1/2 exceeds 1 by {A.max() - 1.0:.3e}"
        )
    return HpSimilarity(beta=beta, A=A, asymmetry=asym)


def hp_distance(sim: HpSimilarity, tol_deg: float = TOL_DEG) -> HpDistance:
    """D = -log A.  Entries equal to 1 map to exactly 0.

    ``is_pseudo`` is set iff beta = 1/2 and some off-diagonal distance is
    below ``tol_deg``.
    """
    A = sim.A
    if A.min() <= 0.0:
        raise InputError("similarity entries must be positive")
    # In place in one n x n buffer: the only other temporary is the bool
    # comparison below.
    D = np.log(A)
    np.negative(D, out=D)
    D += 0.0  # fold -0.0 into +0.0
    is_pseudo = False
    if sim.beta == 0.5 and A.shape[0] > 1:
        np.fill_diagonal(D, np.inf)  # off-diagonal entries only
        is_pseudo = bool((D < tol_deg).any())
    np.fill_diagonal(D, 0.0)
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


def degenerate_pairs(Q, phi: StationaryDistribution, tol_deg: float = TOL_DEG) -> DegeneracyReport:
    """Group states into equivalence classes of the zero-distance relation.

    States i, j are related when Q[i, j] and Q[j, i] are both within
    ``tol_deg`` of 1; classes are the transitive closure.  The closure is
    re-validated: every within-class pair must satisfy the pair condition
    within 10 * tol_deg, and the stationary mass must be constant within a
    class, otherwise the grouping is a tolerance artifact.
    """
    Qm = _q_matrix(Q)
    both = np.minimum(Qm, Qm.T)
    # both is symmetric, so its strong components are the connected ones.
    classes = sorted(strongly_connected_components(both >= 1.0 - tol_deg),
                     key=lambda c: c[0])

    p = phi.phi
    for cls in classes:
        if len(cls) == 1:
            continue
        sub = both[np.ix_(cls, cls)].copy()
        np.fill_diagonal(sub, 1.0)
        if sub.min() < 1.0 - 10.0 * tol_deg:
            raise ToleranceError(
                "transitive closure is inconsistent at this tolerance; "
                "retry with a smaller tol_deg"
            )
        spread = float(p[cls].max() - p[cls].min())
        if spread > 1e-8 * float(p[cls].max()):
            raise ToleranceError(
                f"stationary mass varies by {spread:.3e} inside a degenerate "
                "class; retry with a smaller tol_deg"
            )

    degenerate = any(len(c) > 1 for c in classes)
    return DegeneracyReport(classes=classes, degenerate=degenerate)
