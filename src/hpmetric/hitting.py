"""Hitting probabilities Q[i, j] = P_i(walk reaches j before returning to i).

The fast path inverts the single matrix I - P + 11^T/n and reads every entry
of Q off that inverse through the escape-probability identity
Q[i, j] = 1 / (phi_i (m_ij + m_ji)), with m the mean first passage times
(Kemeny & Snell, *Finite Markov Chains*; Aldous & Fill, ch. 2).  State
reduction builds all of Q from censored chains in O(n^3), sharing no step
with the fast path: it takes over on ill-conditioned chains and serves as
the cross-check.  A batched Monte Carlo walker is an independent statistical
oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .errors import InputError, NumericalError, SimulationDivergenceError
from .graphs import TransitionMatrix, per_chain
from .rng import stream

STEP_CAP = 10_000_000

# 1-norm condition estimate of I - P + 11^T/n above which the single-inverse
# path is abandoned for state reduction.
COND_LIMIT = 1e12


@dataclass(frozen=True)
class HittingProbabilities:
    """Matrix of hit-before-return probabilities with zero diagonal.

    ``used_reference`` is True when Q came from ``hitting_by_reduction``
    (see ``hitting_fast``).  ``smw_fallbacks`` is always 0; the field stays
    because perfbench reads it.
    """

    Q: np.ndarray
    smw_fallbacks: int = 0
    used_reference: bool = False

    @property
    def n(self) -> int:
        return self.Q.shape[0]


def hitting_reference(tm: TransitionMatrix, j: int) -> np.ndarray:
    """Column j of Q by an independent dense factorization (a test reference).

    Q[i, j] = inv(M)[i, j] / inv(M)[i, i] with M = I - P + e_j e_j^T P, that
    is I - P with row j replaced by e_j, built and inverted in one
    Fortran-ordered n x n buffer.
    """
    n = tm.n
    if not 0 <= j < n:
        raise IndexError(f"state {j} out of range for n={n}")
    M = np.empty((n, n), order="F")
    np.subtract(0.0, tm.P, out=M)  # 0 - P, not -P: zeros stay +0.0 as in I - P
    M.flat[:: n + 1] += 1.0
    M[j, :] = 0.0
    M[j, j] = 1.0
    try:
        inv = la.inv(M, overwrite_a=True)
    except la.LinAlgError as exc:
        raise NumericalError(f"column matrix for state {j} is singular: {exc}") from exc
    col = inv[:, j] / np.diag(inv)
    col[j] = 0.0
    return col


def _censor(C: np.ndarray, leaving: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The stack of chains C censored onto the states ``keep``:
    C_SS + C_SK (I - C_KK)^-1 C_KS, returned with a zero diagonal.

    C has a zero diagonal, and ``leaving`` holds its row sums: the mass
    leaving each state.  That mass is the diagonal of I - C_KK, as in GTH
    state reduction, so 1 - C_kk is never formed.  I - C_KK is then an
    M-matrix: its inverse is nonnegative, and both products add nonnegative
    terms.  The inverse is formed explicitly because a batched solve with
    |S| >= |K| right-hand sides runs at a fraction of the matmuls' rate.  One
    eliminated state is a division, which spares the many 3- and 4-state
    chains LAPACK's cost per matrix.
    """
    drop = np.setdiff1d(np.arange(C.shape[1]), keep)
    if drop.size == 1:
        out = C[:, keep[:, None], drop] * (C[:, drop[:, None], keep] / leaving[:, drop, None])
    else:
        A = np.negative(C[:, drop[:, None], drop])
        k = np.arange(drop.size)
        A[:, k, k] = leaving[:, drop]
        try:
            out = C[:, keep[:, None], drop] @ np.linalg.inv(A)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"censored block is singular: {exc}") from exc
        out = out @ C[:, drop[:, None], keep]
    out += C[:, keep[:, None], keep]
    k = np.arange(keep.size)
    out[:, k, k] = 0.0
    return out


def hitting_by_reduction(tm: TransitionMatrix) -> np.ndarray:
    """All of Q in O(n^3) by state reduction, without Z, phi or the
    commute-time identity that ``hitting_fast`` uses.  Not memoized: it is
    the cross-check, and ``hitting_fast`` memoizes it where it falls back.

    Q[i, j] is the i -> j entry of the chain censored to {i, j}: its
    stochastic complement (Meyer, *SIAM Review* 1989; state reduction as in
    Heyman & O'Leary, 1995).  Censoring is transitive, so every pair is
    reached by divide and conquer.  Split the states into two sides.  Pairs
    inside a side come from the chain censored onto that side.  Pairs across
    come from the two chains censored onto one half of the larger side joined
    to the other side: again pairs across two sides, with one side halved.
    Two such steps reach the chains on a quarter of each side, with about
    45 % fewer flops than censoring onto those four chains at once.  At
    2-state chains, Q[i, j] is the censored transition probability.

    The recursion runs breadth-first, largest chains first: all chains of one
    size and split form one stack, censored by one batched inverse and two
    matmuls per kind of child.  That is O(log n) Python steps and about
    6.5 n^3 flops, with at most about 8 n x n of stacks and scratch alive at
    once.
    """
    n = tm.n
    Q = np.zeros((n, n))
    if n == 1:
        return Q
    # (size, split, whole) -> [(chains, their states)]: the first ``split``
    # states of each chain are one side, the rest the other.  A ``whole``
    # chain also owes the pairs inside each side.
    pending = {}

    def put(C, states, split, whole):
        if C.shape[1] == 2:
            Q[states[:, 0], states[:, 1]] = C[:, 0, 1]
            Q[states[:, 1], states[:, 0]] = C[:, 1, 0]
        else:
            pending.setdefault((C.shape[1], split, whole), []).append((C, states))

    P = tm.P.copy()
    np.fill_diagonal(P, 0.0)
    put(P[None], np.arange(n)[None], (n + 1) // 2, True)
    del P
    while pending:
        m, s, whole = key = max(pending)
        parts = pending.pop(key)
        C = parts[0][0] if len(parts) == 1 else np.concatenate([c for c, _ in parts])
        states = np.concatenate([i for _, i in parts])
        del parts
        if s >= m - s:
            a = (s + 1) // 2
            children = [(np.r_[0:a, s:m], a, False), (np.arange(a, m), s - a, False)]
        else:
            b = s + (m - s + 1) // 2
            children = [(np.arange(b), s, False), (np.r_[0:s, b:m], s, False)]
        if whole:
            children += [(np.arange(lo, hi), (hi - lo + 1) // 2, True)
                         for lo, hi in ((0, s), (s, m)) if hi - lo > 1]
        leaving = C.sum(axis=2)
        for keep, split, child_whole in children:
            put(_censor(C, leaving, keep), states[:, keep], split, child_whole)
        del C, states, leaving
    return Q


@per_chain
def hitting_fast(tm: TransitionMatrix) -> HittingProbabilities:
    """Full Q in O(n^3) from one dense inverse, by the escape-probability
    identity Q[i, j] = 1 / (phi_i (m_ij + m_ji)).

    With Z = inv(I - P + 11^T/n), phi = 1^T Z / n and the mean first passage
    times are m_ij = (Z_jj - Z_ij) / phi_j (Kemeny & Snell, *Finite Markov
    Chains*, 1960; Aldous & Fill, *Reversible Markov Chains and Random Walks
    on Graphs*, ch. 2).  Z is overwritten in place by m, then by Q.  A
    singular or ill-conditioned inverse (``COND_LIMIT``, or scipy's
    ``LinAlgWarning``, whose rcond < eps lies far past it) hands the chain to
    ``hitting_by_reduction``, flagged ``used_reference``, at about 8 n x n of
    scratch against 2 n x n here.  Solved once per chain: later calls on the
    same ``tm`` return the same result, whose ``Q`` is read-only.
    """
    n = tm.n
    G = -tm.P
    G += 1.0 / n
    G.flat[:: n + 1] += 1.0
    g_norm = la.norm(G, 1)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", la.LinAlgWarning)
            Z = la.inv(G)
    except (la.LinAlgError, la.LinAlgWarning):
        Z = None
    del G

    if Z is None or g_norm * la.norm(Z, 1) > COND_LIMIT:
        del Z
        Q = hitting_by_reduction(tm)
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


def _sampler(P: np.ndarray):
    """Vectorised next-state draw for P: ``draw(states, u)`` moves each walker
    at ``states[w]`` with its uniform ``u[w]`` in [0, 1).

    The nonzeros of P, row after row, carry their row's cumulative sums offset
    by the row index, so row s spans (s, s + 1] and one ``searchsorted`` of
    s + u over all rows finds the first nonzero whose cumulative sum exceeds
    u.  The result is clipped to the row's last nonzero, since s + u can round
    up to s + 1.  Offsetting by s costs resolution: transition probabilities
    are resolved to about n * 2**-52, not 2**-53.
    """
    rows, cols = np.nonzero(P)
    last = np.cumsum(np.count_nonzero(P, axis=1)) - 1
    cum = np.minimum(np.cumsum(P, axis=1)[rows, cols], 1.0)
    cum[last] = 1.0
    cum += rows

    def draw(states: np.ndarray, u: np.ndarray) -> np.ndarray:
        k = np.searchsorted(cum, states + u, side="right")
        return cols[np.minimum(k, last[states])]

    return draw


def _excursions(tm: TransitionMatrix, i: int, j: int, walks: int, seed: int,
                stop_at_target: bool) -> np.ndarray:
    """Visits to j on each of ``walks`` excursions from i.

    An excursion stops at the first return to i, or earlier at the first
    arrival at j when ``stop_at_target``.  All walks advance together, one
    step per iteration, drawing one uniform per running walk from the single
    stream (seed, 0); the result is a deterministic function of
    (P, i, j, walks, seed).  Any excursion longer than ``STEP_CAP`` steps
    raises SimulationDivergenceError.
    """
    if i == j:
        raise InputError("source and target must differ")
    if walks < 1:
        raise InputError(f"need at least one walk, got {walks}")
    draw = _sampler(tm.P)
    rng = stream(seed, 0)
    visits = np.zeros(walks, dtype=np.int64)
    active = np.arange(walks)
    states = np.full(walks, i)
    for _ in range(STEP_CAP):
        states = draw(states, rng.random(active.size))
        at_target = states == j
        visits[active[at_target]] += 1
        running = states != i
        if stop_at_target:
            running &= ~at_target
        active, states = active[running], states[running]
        if not active.size:
            return visits
    raise SimulationDivergenceError(
        f"walk from {i} exceeded {STEP_CAP} steps without returning"
    )


def simulate_hit_before_return(tm: TransitionMatrix, i: int, j: int, walks: int, seed: int):
    """Monte Carlo estimate of Q[i, j] with its binomial standard error.

    Reproducible: the estimate depends only on (P, i, j, walks, seed).  Runs
    with different ``walks`` share no prefix.
    """
    hits = np.count_nonzero(_excursions(tm, i, j, walks, seed, stop_at_target=True))
    q = float(hits) / walks
    se = float(np.sqrt(q * (1.0 - q) / walks))
    return q, se


def simulate_visit_counts(tm: TransitionMatrix, i: int, j: int, walks: int, seed: int):
    """Mean number of visits to j per excursion from i, with standard error.

    The expectation equals phi[j] / phi[i], giving an independent check of
    the stationary distribution.  Reproducible in the same way as
    ``simulate_hit_before_return``.
    """
    counts = _excursions(tm, i, j, walks, seed, stop_at_target=False)
    mean = float(counts.mean())
    se = float(counts.std(ddof=1) / np.sqrt(walks)) if walks > 1 else 0.0
    return mean, se
