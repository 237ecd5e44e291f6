"""Normalized hitting-probability similarity and the -log distance.

The similarity A[i, j] = phi_i^beta / phi_j^(1-beta) * Q[i, j] is symmetric
by the detailed-balance identity Q[i, j] phi_i = Q[j, i] phi_j; the distance
D = -log A is a metric for beta in (1/2, 1] and a pseudo-metric at
beta = 1/2, where pairs with Q[i, j] = Q[j, i] = 1 collapse to distance 0.
Those are exactly the pairs where ``hitting_fast`` writes Q = 1.0 in both
directions, so degeneracy is read off Q by exact comparison.
The triangle slack D[i, j] - D[i, k] - D[k, j] of d_beta is that of d_beta0
plus 2 (beta - beta0) log phi_k, so one sweep (worst slack per pivot k)
checks every triple at every beta.  The sweep is certified: one GEMM bounds
every row's worst slack (``_row_bounds``), and ``pivot_maxima`` evaluates
exactly only the rows whose bound reaches the worst slack found, which gives
the same float as evaluating every row.
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


def pivot_maxima(M: np.ndarray, combine, rows=None) -> np.ndarray:
    """w[k] = max of combine(M[i, k], M[k, j]) - M[i, j] over i != j, k not in {i, j},
    with i among ``rows`` (every row when None).

    ``combine`` is a binary ufunc (np.multiply for submultiplicativity of Q,
    np.add on -D for the triangle inequality of D).  Pivots with no such
    triple get -inf.  A group of rows is swept against a block of pivots at
    a time, in one scratch buffer of about 2^17 entries: up to 2^17 / n rows,
    against 2^17 / (rows n) pivots, so a few rows cost a few steps and many
    rows a step per pivot.  Each slack is the same float whatever rows are
    swept with it.
    """
    n = M.shape[0]
    rows = np.arange(n) if rows is None else np.asarray(rows)
    group = min(rows.size, max(1, 2**17 // n))
    step = max(1, 2**17 // (group * n))
    buf = np.empty(group * min(step, n) * n)
    w = np.full(n, -np.inf)
    for g0 in range(0, rows.size, group):
        R = rows[g0:g0 + group]
        t = np.arange(R.size)
        head = M[R]
        for k0 in range(0, n, step):
            k1 = min(k0 + step, n)
            b = buf[: (k1 - k0) * R.size * n].reshape(k1 - k0, R.size, n)
            combine(head.T[k0:k1, :, None], M[k0:k1, None], out=b)
            b -= head
            b[:, t, R] = -np.inf  # j = i
            b[np.arange(k1 - k0), :, np.arange(k0, k1)] = -np.inf  # j = k
            at = (k0 <= R) & (R < k1)
            b[R[at] - k0, t[at]] = -np.inf  # k = i
            np.maximum(w[k0:k1], b.reshape(k1 - k0, -1).max(axis=1), out=w[k0:k1])
    return w


# The certificate's p-norm (see ``_row_bounds``), entries per row block of
# its GEMM, and the unit roundoff u = 2^-53.
_P = 64
_CERT_BLOCK = 2**18
_U = 2.0**-53


def _row_bounds(M: np.ndarray, combine, shift=None) -> np.ndarray:
    """B[i] >= every slack that ``pivot_maxima(M, combine)`` computes in row i,
    plus ``shift[k]`` at pivot k, from one GEMM.

    In logs, L = M for np.add (M = -D) and L = log M for np.multiply (M = Q),
    with -inf on the diagonal; h = shift / 2 (zero when None).  With
    R_ik = L_ik + h_k, C_kj = h_k + L_kj, r_i = max_k R_ik and c_j = max_k C_kj,
    a = exp(p (R - r)) and b = exp(p (C - c)) lie in [0, 1], and for every k
        L_ik + L_kj + shift_k <= r_i + c_j + log(sum_k a_ik b_kj) / p = log U_ij,
    since a maximum is at most a p-norm.  U_ij bounds max_k X_ik X_kj e^shift_k
    for X = e^L (zero diagonal): one GEMM for every pair over every pivot.
    p = 64 leaves U within n^(1/64) of that maximum.

    Rounding.  With Λ = max |finite L| + max |h|, γ_m = m u / (1 - m u), and
    exp and log within 4 ulp, the computed log U falls short of the exact one
    by at most:
    - 2uΛ for R and C, and 4uΛ + 8u/p for the differences from r and c (each
      a relative error of e^(2puΛ) in a and b before the p-th root), plus 4u
      for exp itself;
    - γ_n / p for the GEMM of nonnegative terms, in any summation order;
    - n tiny is added to the sum: each power and product that underflows
      loses at most 3 * 2^-1074, and n tiny covers n of them;
    - 48u for log (|log| <= 745 + log n), 4.04uΛ + 25u for adding r and c;
    - for np.add, the slack's own roundings fl(fl(M_ik + M_kj) - M_ij), then
      + shift_k: u (8 max |M| + max |shift|) <= 10.2uΛ, and 4uΛ + 12u for
      log U - M_ij; for np.multiply, 8uΛ for log Q.
    Together under 32u (Λ + 4) + γ_n / p; E = 64u (Λ + 4) + γ_2n / p doubles it.
    For np.add, B_i = max_(j != i) (log U_ij - M_ij) + E.  For np.multiply,
    V = e^(log U + E) (1 + 8u) bounds Q_ik Q_kj (1 + u)^2 with exp's rounding,
    the computed slack is at most fl(V_ij - Q_ij) + 2u max(V_ij, Q_ij), and
    B_i = max_(j != i) fl(V_ij - Q_ij) + 4u max_j max(V_ij, Q_ij).  A NaN
    anywhere in M makes the bounds it reaches NaN.
    """
    n = M.shape[0]
    logs = combine is np.multiply
    h = np.zeros(n) if shift is None else np.asarray(shift) / 2.0
    with np.errstate(all="ignore"):
        fin = np.isfinite(M)
        if logs:
            fin &= M > 0.0
        ends = np.array([np.max(M, where=fin, initial=-np.inf),
                         np.min(M, where=fin, initial=np.inf)])
        del fin
        ends = np.log(ends) if logs else ends
        lam = float(np.abs(ends[np.isfinite(ends)]).max(initial=0.0) + np.abs(h).max())
        gamma = 2 * n * _U / (1 - 2 * n * _U)
        E = 64 * _U * (lam + 4.0) + gamma / _P

        b = np.log(M) if logs else M.copy()
        b += h[:, None]
        np.fill_diagonal(b, -np.inf)
        c = b.max(axis=0)
        c[c == -np.inf] = 0.0
        b -= c
        b *= _P
        np.exp(b, out=b)

        bound = np.empty(n)
        step = max(1, _CERT_BLOCK // n)
        for i0 in range(0, n, step):
            i1 = min(i0 + step, n)
            diag = (np.arange(i1 - i0), np.arange(i0, i1))
            a = np.log(M[i0:i1]) if logs else M[i0:i1].copy()
            a += h
            a[diag] = -np.inf
            r = a.max(axis=1)
            r[r == -np.inf] = 0.0
            a -= r[:, None]
            a *= _P
            np.exp(a, out=a)
            U = a @ b
            del a
            U += n * np.finfo(float).tiny
            np.log(U, out=U)
            U /= _P
            U += r[:, None]
            U += c
            if logs:
                U += E
                np.exp(U, out=U)
                U *= 1.0 + 8 * _U
                top = np.maximum(U, M[i0:i1]).max(axis=1)
                U -= M[i0:i1]
                U[diag] = -np.inf
                bound[i0:i1] = U.max(axis=1) + 4 * _U * top
            else:
                U -= M[i0:i1]
                U[diag] = -np.inf
                bound[i0:i1] = U.max(axis=1) + E
    return bound


def certified_pivot_maxima(M: np.ndarray, combine, shifts=(None,)) -> np.ndarray:
    """Per-pivot maxima w of ``pivot_maxima`` over the rows that can hold a
    worst slack: for each shift s in ``shifts`` (None: no shift),
    max(w + s) is the same float as for the sweep of every row.

    Each shift's ``_row_bounds`` bound every row's slacks from one GEMM.  The
    row with the largest bound is swept first; a row whose bound lies below
    the worst slack swept so far cannot hold the maximum (rounding is
    monotone, so neither can w_k + s_k), and the other rows are swept
    together.  Rows swept for one shift serve the next.
    """
    n = M.shape[0]
    w = np.full(n, -np.inf)
    unswept = np.ones(n, dtype=bool)
    for s in shifts:
        if not unswept.any():
            break
        bound = _row_bounds(M, combine, s)
        first = True
        while True:
            achieved = (w if s is None else w + s).max()
            live = unswept & ~(bound < achieved)  # a NaN bound stays live
            if not live.any():
                break
            rows = np.flatnonzero(live)
            if first:
                rows = rows[[np.argmax(bound[rows])]]
            np.maximum(w, pivot_maxima(M, combine, rows), out=w)
            unswept[rows] = False
            first = False
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

    Every pair and every triple is checked, at every n: one certified sweep
    (``certified_pivot_maxima``) covers the triples of distinct indices, and
    ``repeated_index_slack`` the rest.  Returns a report with per-axiom
    booleans (at tolerance ``tol``) and the worst observed slack, so callers
    can apply stricter thresholds.
    """
    D = dist.D
    worst_tri = max(float(certified_pivot_maxima(-D, np.add).max()), repeated_index_slack(D))
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
