"""Digraph symmetrizations, graph Laplacians, and Fiedler vectors.

Four symmetrizations are supported: the additive and entrywise-max
combinations of P and P^T, the stationary-weighted Laplacian
L = I - (Phi^{1/2} P Phi^{-1/2} + Phi^{-1/2} P^T Phi^{1/2}) / 2, and the
normalized hitting-probability similarity at a chosen beta.  The Fiedler
vector comes from the three smallest Laplacian eigenpairs only: by a dense
subset solve below ``LANCZOS_MIN_N`` nodes, and from there on by
shift-invert Lanczos on one LU factorization of the shifted Laplacian
(Lehoucq, Sorensen & Yang, ARPACK Users' Guide, SIAM 1998), which costs one
factorization plus O(n^2) per step where the dense solve's tridiagonal
reduction is memory-bound.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import InputError
from .graphs import TransitionMatrix
from .hitting import hitting_fast
from .metric import hp_similarity
from .rng import stream
from .stationary import StationaryDistribution

KINDS = ("additive", "max", "chung", "hp")

# Fiedler entries below this fraction of max|v| get sign 0.
ZERO_THRESHOLD = 1e-8

# From this many nodes on, the Fiedler vector comes from shift-invert Lanczos
# on one LU instead of a dense subset solve.  Measured best of k with one
# BLAS thread on random digraphs: Lanczos is at parity with the dense solve
# at n = 500 on hp Laplacians (0.35-0.44x at 1500) and at n = 1000 on chung
# Laplacians, whose spectra need about three times the Lanczos steps
# (0.7x at 1500), so neither kind gets slower at this size.
LANCZOS_MIN_N = 1000

# The Lanczos shift, relative to max|diag L|.
SHIFT = 1e-8


@dataclass(frozen=True)
class SymmetricOperator:
    """Symmetric matrix derived from a chain: an adjacency for kinds
    'additive', 'max', and 'hp'; a Laplacian for kind 'chung'."""

    kind: str
    M: np.ndarray
    beta: float = None


def symmetrize(tm: TransitionMatrix, phi: StationaryDistribution, kind: str,
               beta: float = None) -> SymmetricOperator:
    if kind not in KINDS:
        raise InputError(f"unknown symmetrization {kind!r}; choose from {KINDS}")
    P = tm.P
    if kind == "additive":
        return SymmetricOperator(kind=kind, M=(P + P.T) / 2.0)
    if kind == "max":
        return SymmetricOperator(kind=kind, M=np.maximum(P, P.T))
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
    if beta is None:
        raise InputError("the hp symmetrization requires a beta")
    sim = hp_similarity(hitting_fast(tm), phi, beta)
    return SymmetricOperator(kind=kind, M=sim.A, beta=beta)


def laplacian(M: np.ndarray) -> np.ndarray:
    """L = D - M for a symmetric nonnegative adjacency M."""
    M = np.asarray(M, dtype=float)
    # One n x n buffer: first |M - M^T|, then L.
    L = np.subtract(M, M.T)
    np.abs(L, out=L)
    if L.max() > 1e-10:
        raise InputError("adjacency must be symmetric")
    if M.min() < 0:
        raise InputError("adjacency must be nonnegative")
    np.subtract(0.0, M, out=L)
    L.flat[:: M.shape[0] + 1] += M.sum(axis=1)
    return L


def operator_laplacian(op: SymmetricOperator) -> np.ndarray:
    return op.M if op.kind == "chung" else laplacian(op.M)


def _lanczos_eigenpairs(L: np.ndarray):
    """The three smallest eigenpairs of the symmetric L, smallest first."""
    n = L.shape[0]
    # The same check as lu_factor's own, without its n x n boolean mask.
    if not (np.isfinite(L.min()) and np.isfinite(L.max())):
        raise ValueError("array must not contain infs or NaNs")
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
        vals, vecs = eigsh(L, k=3, sigma=-delta, which="LM", tol=0, OPinv=inverse,
                           v0=stream(0).standard_normal(n))
    except ArpackNoConvergence:
        warnings.warn(
            "shift-invert Lanczos did not converge; the Fiedler vector comes "
            "from the dense subset eigensolver instead",
            RuntimeWarning,
            stacklevel=3,
        )
        del lu, lu_piv, inverse  # free the factor before eigh copies L
        return la.eigh(L, subset_by_index=[0, 2])
    vecs = vecs[:, np.argsort(vals)]
    # Ritz values of the inverse lose digits away from the shift; Rayleigh
    # quotients of L are accurate to rounding in ||L||, as eigh's values are.
    return np.einsum("ij,ij->j", vecs, L @ vecs), vecs


def fiedler_vector(L: np.ndarray):
    """Unit eigenvector of the second-smallest Laplacian eigenvalue.

    The global sign is fixed so the largest-magnitude entry is positive;
    entries within 1e-10 * max|v| of the largest count as tied, and the
    lowest index among them wins.  Returns the vector and its sign pattern
    in {-1, 0, +1}, where entries below ``ZERO_THRESHOLD * max|v|`` count as
    zero.  Warns when the second and third eigenvalues nearly coincide,
    since the pattern is then basis dependent.

    Only the three smallest eigenpairs are computed.  Below
    ``LANCZOS_MIN_N`` nodes they come from a dense subset solve
    (``la.eigh`` with ``subset_by_index``).  From ``LANCZOS_MIN_N`` on they
    come from shift-invert Lanczos (ARPACK's ``eigsh``): L + delta I, with
    delta = ``SHIFT`` * max|diag L|, is factored once by LU in one copy of L,
    and each Lanczos step is one pair of triangular solves (about 40 on hp
    and 115-135 on chung Laplacians of random digraphs).  The shift keeps
    the factor nonsingular, since L has the eigenvalue 0.  The start vector
    is a fixed normal draw from ``rng.stream(0)``, not 1, to which the
    Fiedler vector is orthogonal, so repeated calls give the same bits.  The
    eigenvalues are the Rayleigh quotients of L at the Lanczos vectors.  If
    Lanczos does not converge, a ``RuntimeWarning`` says so and the dense
    subset solve is used.
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

    if k >= 3 and abs(vals[2] - vals[1]) < 1e-12:
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
