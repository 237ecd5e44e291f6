"""Digraph symmetrizations, graph Laplacians, and Fiedler vectors.

Four symmetrizations are supported: the additive and entrywise-max
combinations of P and P^T, the stationary-weighted Laplacian
L = I - (Phi^{1/2} P Phi^{-1/2} + Phi^{-1/2} P^T Phi^{1/2}) / 2, and the
normalized hitting-probability similarity at a chosen beta.  The Fiedler
vector comes from the three smallest Laplacian eigenpairs only: by a dense
subset solve below ``LANCZOS_MIN_N`` nodes, and from there on by Lanczos,
where the dense solve's tridiagonal reduction is memory-bound.  A Laplacian
with every entry nonzero, such as any hp Laplacian, has its unwanted
eigenvalues tightly bunched, so plain Lanczos on L converges in a few dozen
matrix-vector products (the Kaniel-Paige-Saad bound; Saad, Numerical Methods
for Large Eigenvalue Problems, ch. 6).  Any other Laplacian gets
shift-invert Lanczos on one LU factorization of the shifted Laplacian
(Lehoucq, Sorensen & Yang, ARPACK Users' Guide, SIAM 1998).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import InputError
from .graphs import TransitionMatrix
from .hitting import hitting_fast, mirror_tiles
from .metric import hp_similarity
from .rng import stream
from .stationary import StationaryDistribution, stationary_distribution

KINDS = ("additive", "max", "chung", "hp")

# Fiedler entries below this fraction of max|v| get sign 0.
ZERO_THRESHOLD = 1e-8

# From this many nodes on, the Fiedler vector comes from Lanczos instead of a
# dense subset solve.  Measured best of k with one BLAS thread on random
# digraphs: shift-invert Lanczos is at parity with the dense solve
# at n = 500 on hp Laplacians (0.35-0.44x at 1500) and at n = 1000 on chung
# Laplacians, whose spectra need about three times the Lanczos steps
# (0.7x at 1500), so neither kind gets slower at this size.
LANCZOS_MIN_N = 1000

# The Lanczos shift, relative to max|diag L|.
SHIFT = 1e-8

# Restarts allowed to plain Lanczos before L goes to shift-invert.  With
# eigsh's default 20 Lanczos vectors, 8 restarts take at most 152 GEMVs, and
# a whole shift-invert run (copy, LU and solves) costs 110-240 GEMVs at
# n = 1000-2000 with one BLAS thread, so a plain run that fails costs about
# one shift-invert run at most.  Full-support Laplacians of random digraphs
# converged in 38-69 GEMVs (hp, beta = 1/2), 71-146 (hp, beta = 1) and
# 36-134 (chung on circle point clouds).
PLAIN_MAXITER = 8


@dataclass(frozen=True)
class SymmetricOperator:
    """Symmetric matrix derived from a chain: an adjacency for kinds
    'additive', 'max', and 'hp'; a Laplacian for kind 'chung'."""

    kind: str
    M: np.ndarray


def symmetrize(tm: TransitionMatrix, phi: StationaryDistribution, kind: str,
               beta: float = None) -> SymmetricOperator:
    """phi may be None: 'chung' and 'hp' then take stationary_distribution(tm)."""
    if kind not in KINDS:
        raise InputError(f"unknown symmetrization {kind!r}; choose from {KINDS}")
    P = tm.P
    if kind == "additive":
        return SymmetricOperator(kind=kind, M=(P + P.T) / 2.0)
    if kind == "max":
        return SymmetricOperator(kind=kind, M=np.maximum(P, P.T))
    if kind == "hp" and beta is None:
        raise InputError("the hp symmetrization requires a beta")
    phi = stationary_distribution(tm) if phi is None else phi
    if kind == "chung":
        # I - (T + T^T) / 2 with T = Phi^{1/2} P Phi^{-1/2}, in two n x n
        # buffers: T, then L.
        s = np.sqrt(phi.phi)
        T = np.multiply(s[:, None], P)
        T /= s[None, :]
        L = np.add(T, T.T)
        L /= 2.0
        np.subtract(0.0, L, out=L)
        L.flat[:: tm.n + 1] += 1.0
        return SymmetricOperator(kind=kind, M=L)
    return SymmetricOperator(kind=kind, M=hp_similarity(hitting_fast(tm), phi, beta).A)


def laplacian(M: np.ndarray) -> np.ndarray:
    """L = D - M for a symmetric nonnegative adjacency M."""
    M = np.asarray(M, dtype=float)
    lo, hi = M.min(), M.max()  # a NaN makes both NaN, and fails every comparison below
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise InputError("adjacency entries must be finite")
    # |M - M^T| a tile and its mirror at a time, so the only n x n is L.
    asym = max((np.abs(M[rows, cols] - M[cols, rows].T).max()
                for rows, cols in mirror_tiles(M.shape[0])), default=0.0)
    if asym > 1e-10:
        raise InputError("adjacency must be symmetric")
    if lo < 0:
        raise InputError("adjacency must be nonnegative")
    L = np.subtract(0.0, M)
    L.flat[:: M.shape[0] + 1] += M.sum(axis=1)
    return L


def operator_laplacian(op: SymmetricOperator) -> np.ndarray:
    return op.M if op.kind == "chung" else laplacian(op.M)


def _lanczos_eigenpairs(L: np.ndarray):
    """The three smallest eigenpairs of the symmetric L, smallest first."""
    n = L.shape[0]
    # lu_factor's check, without its n x n boolean mask: neither solver below
    # makes it, and a non-finite entry would pass through their products.
    if not (np.isfinite(L.min()) and np.isfinite(L.max())):
        raise ValueError("array must not contain infs or NaNs")
    v0 = stream(0).standard_normal(n)
    if np.count_nonzero(L) == n * n:
        # Full support bunches the unwanted spectrum (lambda_2..lambda_n of
        # an hp Laplacian lie in [795, 991] at n = 2000): one GEMV per step,
        # and no n x n scratch.
        try:
            vals, vecs = eigsh(L, k=3, which="SA", tol=0, v0=v0, maxiter=PLAIN_MAXITER)
        except ArpackNoConvergence:
            pass
        else:
            return _rayleigh_quotients(L, vals, vecs)
    delta = SHIFT * np.abs(np.diagonal(L)).max()
    # One n x n copy, shifted and then factored in place.
    lu = np.array(L, order="F")
    lu.flat[:: n + 1] += delta
    lu_piv = la.lu_factor(lu, overwrite_a=True, check_finite=False)
    # Given the inverse, eigsh does not factor copies of L of its own.
    inverse = LinearOperator(
        (n, n), dtype=float,
        matvec=lambda b: la.lu_solve(lu_piv, b, check_finite=False))
    try:
        vals, vecs = eigsh(L, k=3, sigma=-delta, which="LM", tol=0, OPinv=inverse, v0=v0)
    except ArpackNoConvergence:
        warnings.warn(
            "shift-invert Lanczos did not converge; the Fiedler vector comes "
            "from the dense subset eigensolver instead",
            RuntimeWarning,
            stacklevel=3,
        )
        del lu, lu_piv, inverse  # free the factor before eigh copies L
        return la.eigh(L, subset_by_index=[0, 2])
    return _rayleigh_quotients(L, vals, vecs)


def _rayleigh_quotients(L: np.ndarray, vals: np.ndarray, vecs: np.ndarray):
    """The Ritz vectors sorted by value, and L's Rayleigh quotients at them.
    Ritz values of the inverse lose digits away from the shift; Rayleigh
    quotients of L are accurate to rounding in ||L||, as eigh's values are."""
    vecs = vecs[:, np.argsort(vals)]
    return np.einsum("ij,ij->j", vecs, L @ vecs), vecs


def fiedler_vector(L: np.ndarray):
    """Unit eigenvector of the second-smallest Laplacian eigenvalue.

    The global sign is fixed so the largest-magnitude entry is positive;
    entries within 1e-10 * max|v| of the largest count as tied, and the
    lowest index among them wins.  Returns the vector and its sign pattern
    in {-1, 0, +1}, where entries below ``ZERO_THRESHOLD * max|v|`` count as
    zero.  Warns when the second and third eigenvalues nearly coincide
    (their gap is below n u max|diag L|, with u = 2^-53, or below 1e-12),
    since the pattern is then basis dependent.

    Only the three smallest eigenpairs are computed.  Below
    ``LANCZOS_MIN_N`` nodes they come from a dense subset solve
    (``la.eigh`` with ``subset_by_index``).  From ``LANCZOS_MIN_N`` on they
    come from Lanczos (ARPACK's ``eigsh``).  When every entry of L is
    nonzero, as in any hp Laplacian, plain Lanczos runs on L itself: each
    step is one matrix-vector product (38-69 on hp Laplacians of random
    digraphs), and L is neither copied nor factored.  Any other L, or one
    whose plain run has not converged within ``PLAIN_MAXITER`` restarts,
    gets shift-invert Lanczos: L + delta I, with delta = ``SHIFT`` *
    max|diag L|, is factored once by LU in one copy of L, and each step is
    one pair of triangular solves (115-135 on chung Laplacians of random
    digraphs).  The shift keeps the factor nonsingular, since L has the
    eigenvalue 0.  The start vector is a fixed normal draw from
    ``rng.stream(0)``, not 1, to which the Fiedler vector is orthogonal, so
    repeated calls give the same bits.  The eigenvalues are the Rayleigh
    quotients of L at the Lanczos vectors.  If shift-invert Lanczos does not
    converge, a ``RuntimeWarning`` says so and the dense subset solve is
    used.
    """
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    if n < 2:
        raise InputError("need at least two nodes for a Fiedler vector")
    k = min(3, n)
    if n < LANCZOS_MIN_N:
        vals, vecs = la.eigh(L, subset_by_index=[0, k - 1])
    else:
        vals, vecs = _lanczos_eigenpairs(L)

    # Either solver's eigenvalues can be off by up to about n u ||L||, and
    # max|diag L| bounds ||L||_2 within a factor 2.  The absolute 1e-12 stays
    # as a floor: K4's computed gap, 1.8e-15 for an exact 0, exceeds 4 u * 3.
    unresolved = max(1e-12, n * np.finfo(float).eps / 2 * np.abs(np.diagonal(L)).max())
    if k >= 3 and abs(vals[2] - vals[1]) < unresolved:
        warnings.warn(
            "second and third eigenvalues nearly coincide; the Fiedler sign "
            "pattern may be basis dependent",
            RuntimeWarning,
            stacklevel=2,
        )
    v = vecs[:, 1]
    v = v / la.norm(v)
    mag = np.abs(v)
    lead = np.argmax(mag >= mag.max() * (1.0 - 1e-10))
    if v[lead] < 0:
        v = -v
    cut = ZERO_THRESHOLD * mag.max()
    signs = np.zeros(n, dtype=np.int8)
    signs[v > cut] = 1
    signs[v < -cut] = -1
    return v, signs
