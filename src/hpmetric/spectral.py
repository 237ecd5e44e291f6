"""Digraph symmetrizations, graph Laplacians, and Fiedler vectors.

Four symmetrizations are supported: the additive and entrywise-max
combinations of P and P^T, the stationary-weighted Laplacian
L = I - (Phi^{1/2} P Phi^{-1/2} + Phi^{-1/2} P^T Phi^{1/2}) / 2, and the
normalized hitting-probability similarity at a chosen beta.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InputError
from .graphs import TransitionMatrix
from .hitting import hitting_fast
from .metric import hp_similarity
from .stationary import StationaryDistribution

DENSE_EIG_LIMIT = 2000

KINDS = ("additive", "max", "chung", "hp")


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
        s = np.sqrt(phi.phi)
        T = (s[:, None] * P) / s[None, :]
        L = np.eye(tm.n) - (T + T.T) / 2.0
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


def fiedler_vector(L: np.ndarray, zero_threshold: float = 1e-8):
    """Unit eigenvector of the second-smallest Laplacian eigenvalue.

    The global sign is fixed so the largest-magnitude entry is positive
    (ties broken by lowest index).  Returns the vector and its sign pattern
    in {-1, 0, +1}, where entries below ``zero_threshold * max|v|`` count as
    zero.  Warns when the second and third eigenvalues nearly coincide,
    since the pattern is then basis dependent.  Only the three smallest
    eigenpairs are computed: a subset dense solve up to ``DENSE_EIG_LIMIT``
    nodes, shift-invert Lanczos above it.
    """
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    if n < 2:
        raise InputError("need at least two nodes for a Fiedler vector")
    k = min(3, n)
    if n <= DENSE_EIG_LIMIT:
        vals, vecs = la.eigh(L, subset_by_index=[0, k - 1])
    else:
        Ls = sp.csr_matrix(L) if not sp.issparse(L) else L
        v0 = np.full(n, 1.0 / np.sqrt(n))
        vals, vecs = spla.eigsh(Ls, k=k, sigma=-1e-6, which="LM", mode="normal", v0=v0)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]

    if k >= 3 and abs(vals[2] - vals[1]) < 1e-12:
        warnings.warn(
            "second and third eigenvalues nearly coincide; the Fiedler sign "
            "pattern may be basis dependent",
            RuntimeWarning,
            stacklevel=2,
        )
    v = vecs[:, 1]
    v = v / la.norm(v)
    lead = np.argmax(np.abs(v))
    if v[lead] < 0:
        v = -v
    cut = zero_threshold * np.abs(v).max()
    signs = np.zeros(n, dtype=np.int8)
    signs[v > cut] = 1
    signs[v < -cut] = -1
    return v, signs
