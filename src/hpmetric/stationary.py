"""Invariant distribution of an irreducible chain.

Solved directly as a linear system rather than by power iteration, so
periodic chains (e.g. directed cycles) are handled exactly.  The LU of that
system is the one factorization per chain: ``hitting_fast`` inverts it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .errors import NumericalError
from .graphs import TransitionMatrix, per_chain

RESIDUAL_TOL = 1e-10

# Round-off can leave tiny negative entries; anything worse means the solve
# actually failed, since irreducibility guarantees positivity.
NEGATIVE_CLAMP = 1e-13

# The memo entry holding the chain's LU from ``stationary_distribution``
# until ``hitting_fast`` takes it.
FACTOR_KEY = f"{__name__}.factor"

getrf, getrs, gecon, lange = la.lapack.get_lapack_funcs(
    ("getrf", "getrs", "gecon", "lange"), dtype=np.float64)


@dataclass(frozen=True)
class StationaryDistribution:
    phi: np.ndarray


def fundamental_system(tm: TransitionMatrix) -> np.ndarray:
    """G = I - P + 11^T/n: nonsingular for an irreducible chain, periodic or not."""
    G = np.subtract(1.0 / tm.n, tm.P)
    G.flat[:: tm.n + 1] += 1.0
    return G


def factor_fundamental_system(tm: TransitionMatrix) -> tuple:
    """(lu, piv, ||G||_1): the LU with partial pivoting of G^T, G =
    ``fundamental_system(tm)``, factored in place in the F-ordered view G.T.
    ||G||_1 is the infinity norm of that view, taken before the LU overwrites
    it.  An exactly singular G raises ``la.LinAlgError``.
    """
    Gt = fundamental_system(tm).T
    g_norm = lange("I", Gt)
    lu, piv, info = getrf(Gt, overwrite_a=True)
    if info > 0:
        raise la.LinAlgError(f"singular matrix: U[{info - 1}, {info - 1}] is 0")
    return lu, piv, g_norm


@per_chain
def stationary_distribution(tm: TransitionMatrix) -> StationaryDistribution:
    """Solve G^T phi = 1/n, G = ``fundamental_system(tm)``, by the LU of
    ``factor_fundamental_system``.  G 1 = 1, so phi sums to 1 and
    P^T phi = phi.  No balance equation is replaced, so the accuracy does not
    hang on which state is numbered last.  A singular G, or one whose
    estimated reciprocal 1-norm condition number is below machine epsilon,
    raises ``NumericalError``.  Solved once per chain: later calls on the
    same ``tm`` return the same result, whose ``phi`` is read-only.

    The LU stays in the chain's memo until ``hitting_fast`` inverts it in
    place, so a caller that needs only phi keeps one n x n more for the
    chain's lifetime.
    """
    try:
        factor = factor_fundamental_system(tm)
    except la.LinAlgError as exc:
        raise NumericalError(f"stationary solve failed: {exc}") from exc
    lu, piv, g_norm = factor
    # The infinity norm of G^T, which the LU factors, is the 1-norm of G.
    rcond = gecon(lu, g_norm, norm="I")[0]
    if not rcond >= np.finfo(float).eps:
        raise NumericalError(f"stationary solve failed: ill-conditioned matrix (rcond={rcond:.3e})")
    phi = getrs(lu, piv, np.full(tm.n, 1.0 / tm.n))[0]

    worst_negative = phi.min()
    if worst_negative < -NEGATIVE_CLAMP:
        raise NumericalError(
            f"stationary solve produced negative mass {worst_negative:.3e}"
        )
    phi = np.maximum(phi, 1e-300)
    phi = phi / phi.sum()

    residual = np.abs(tm.P.T @ phi - phi).max()
    if residual > RESIDUAL_TOL:
        raise NumericalError(
            f"stationary residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}"
        )
    phi.flags.writeable = False
    tm._memo.setdefault(FACTOR_KEY, factor)
    return StationaryDistribution(phi=phi)
