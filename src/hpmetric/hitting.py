"""Hitting probabilities Q[i, j] = P_i(walk reaches j before returning to i).

Two exact paths are provided: a per-column reference solve, and a fast path
that inverts the single matrix I - P + 11^T/n and reads every entry of Q off
that inverse through the escape-probability identity
Q[i, j] = 1 / (phi_i (m_ij + m_ji)), with m the mean first passage times
(Kemeny & Snell, *Finite Markov Chains*; Aldous & Fill, ch. 2).  Monte Carlo
walk simulation serves as an independent statistical oracle.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .errors import NumericalError, SimulationDivergenceError
from .graphs import TransitionMatrix, per_chain
from .rng import stream

STEP_CAP = 10_000_000

# 1-norm condition estimate of I - P + 11^T/n above which the single-inverse
# path is abandoned for per-column solves.
COND_LIMIT = 1e12


@dataclass(frozen=True)
class HittingProbabilities:
    """Matrix of hit-before-return probabilities with zero diagonal.

    ``used_reference`` is True when conditioning forced every column onto the
    reference path.  ``smw_fallbacks`` is always 0: the fast path has no
    per-column fallback; the field stays because perfbench reads it.
    """

    Q: np.ndarray
    smw_fallbacks: int = 0
    used_reference: bool = False

    @property
    def n(self) -> int:
        return self.Q.shape[0]


@dataclass(frozen=True)
class WalkRecord:
    start: int
    hit_before_return: bool
    visits_to_target: int

    def __post_init__(self):
        if self.visits_to_target >= 1 and not self.hit_before_return:
            raise ValueError("a visited target must have been hit")


def _column_matrix(P: np.ndarray, j: int) -> np.ndarray:
    # I - P with row j overwritten by e_j (equivalently I - P + e_j e_j^T P).
    M = np.eye(P.shape[0]) - P
    M[j, :] = 0.0
    M[j, j] = 1.0
    return M


def hitting_reference(tm: TransitionMatrix, j: int) -> np.ndarray:
    """Column j of Q by an independent dense factorization.

    Q[i, j] = inv(M)[i, j] / inv(M)[i, i] with M = I - P + e_j e_j^T P.
    """
    n = tm.n
    if not 0 <= j < n:
        raise IndexError(f"state {j} out of range for n={n}")
    M = _column_matrix(tm.P, j)
    try:
        inv = la.inv(M)
    except la.LinAlgError as exc:
        raise NumericalError(f"column matrix for state {j} is singular: {exc}") from exc
    col = inv[:, j] / np.diag(inv)
    col[j] = 0.0
    return col


@per_chain
def hitting_fast(tm: TransitionMatrix) -> HittingProbabilities:
    """Full Q in O(n^3) from one dense inverse, by the escape-probability
    identity Q[i, j] = 1 / (phi_i (m_ij + m_ji)).

    With Z = inv(I - P + 11^T/n), phi = 1^T Z / n and the mean first passage
    times are m_ij = (Z_jj - Z_ij) / phi_j (Kemeny & Snell, *Finite Markov
    Chains*, 1960; Aldous & Fill, *Reversible Markov Chains and Random Walks
    on Graphs*, ch. 2).  Z is overwritten in place by m, then by Q.  Falls
    back to per-column reference solves when the inverted matrix is too
    ill-conditioned.  Solved once per chain: later calls on the same ``tm``
    return the same result, whose ``Q`` is read-only.
    """
    n = tm.n
    G = -tm.P
    G += 1.0 / n
    G.flat[:: n + 1] += 1.0
    g_norm = la.norm(G, 1)
    try:
        Z = la.inv(G)
    except la.LinAlgError as exc:
        raise NumericalError(f"fundamental matrix is singular: {exc}") from exc
    del G

    if g_norm * la.norm(Z, 1) > COND_LIMIT:
        Q = np.empty((n, n))
        for j in range(n):
            Q[:, j] = hitting_reference(tm, j)
        Q.flags.writeable = False
        return HittingProbabilities(Q=Q, used_reference=True)

    phi = Z.sum(axis=0) / n
    np.subtract(np.diag(Z).copy(), Z, out=Z)
    Z /= phi
    # Commute times m_ij + m_ji; the infinite diagonal gives Q[i, i] = 0.
    Z += Z.T
    np.fill_diagonal(Z, np.inf)
    Z *= phi[:, None]
    np.reciprocal(Z, out=Z)
    Z.flags.writeable = False
    return HittingProbabilities(Q=Z)


def _cumulative_rows(P: np.ndarray) -> list:
    rows = []
    for i in range(P.shape[0]):
        c = np.cumsum(P[i]).tolist()
        c[-1] = 1.0
        rows.append(c)
    return rows


def run_walk(cum_rows, i: int, j: int, rng, stop_at_target: bool) -> WalkRecord:
    """One excursion from i: stops at the first return to i, or earlier at the
    first arrival at j when ``stop_at_target``."""
    state = i
    visits = 0
    rand = rng.random
    for _ in range(STEP_CAP):
        state = bisect_right(cum_rows[state], rand())
        if state == j:
            visits += 1
            if stop_at_target:
                return WalkRecord(start=i, hit_before_return=True, visits_to_target=visits)
        elif state == i:
            return WalkRecord(
                start=i, hit_before_return=visits >= 1, visits_to_target=visits
            )
    raise SimulationDivergenceError(
        f"walk from {i} exceeded {STEP_CAP} steps without returning"
    )


def simulate_hit_before_return(tm: TransitionMatrix, i: int, j: int, walks: int, seed: int):
    """Monte Carlo estimate of Q[i, j] with its binomial standard error.

    Each walk runs on its own counter-based stream keyed by (seed, walk
    index), so results are reproducible under any execution order.
    """
    if i == j:
        raise ValueError("source and target must differ")
    if walks < 1:
        raise ValueError("need at least one walk")
    cum_rows = _cumulative_rows(tm.P)
    hits = 0
    for w in range(walks):
        rec = run_walk(cum_rows, i, j, stream(seed, w), stop_at_target=True)
        hits += rec.hit_before_return
    q = hits / walks
    se = float(np.sqrt(q * (1.0 - q) / walks))
    return q, se


def simulate_visit_counts(tm: TransitionMatrix, i: int, j: int, walks: int, seed: int):
    """Mean number of visits to j per excursion from i, with standard error.

    The expectation equals phi[j] / phi[i], giving an independent check of
    the stationary distribution.
    """
    if i == j:
        raise ValueError("source and target must differ")
    if walks < 1:
        raise ValueError("need at least one walk")
    cum_rows = _cumulative_rows(tm.P)
    counts = np.empty(walks)
    for w in range(walks):
        rec = run_walk(cum_rows, i, j, stream(seed, w), stop_at_target=False)
        counts[w] = rec.visits_to_target
    mean = float(counts.mean())
    se = float(counts.std(ddof=1) / np.sqrt(walks)) if walks > 1 else 0.0
    return mean, se
