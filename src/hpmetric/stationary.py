"""Invariant distribution of an irreducible chain.

Solved directly as a linear system rather than by power iteration, so
periodic chains (e.g. directed cycles) are handled exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .errors import NumericalError
from .graphs import TransitionMatrix, per_chain

RESIDUAL_TOL = 1e-10

# Round-off can leave tiny negative entries; anything worse means the solve
# actually failed, since irreducibility guarantees positivity.
NEGATIVE_CLAMP = 1e-13


@dataclass(frozen=True)
class StationaryDistribution:
    phi: np.ndarray


def fundamental_system(tm: TransitionMatrix) -> np.ndarray:
    """G = I - P + 11^T/n: nonsingular for an irreducible chain, periodic or not."""
    G = np.subtract(1.0 / tm.n, tm.P)
    G.flat[:: tm.n + 1] += 1.0
    return G


@per_chain
def stationary_distribution(tm: TransitionMatrix) -> StationaryDistribution:
    """Solve G^T phi = 1/n, G = ``fundamental_system(tm)``, by LU with
    partial pivoting.  G 1 = 1, so phi sums to 1 and P^T phi = phi.  No
    balance equation is replaced, so the accuracy does not hang on which
    state is numbered last.  A singular or ill-conditioned G raises
    ``NumericalError``.  Solved once per chain: later calls on the same
    ``tm`` return the same result, whose ``phi`` is read-only.
    """
    # G^T is an F-ordered view, which the solve factors in place.  "gen"
    # keeps the LU: G is symmetric whenever P is, and scipy's structure
    # detection would then pick another factorization.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", la.LinAlgWarning)
            phi = la.solve(fundamental_system(tm).T, np.full(tm.n, 1.0 / tm.n),
                           overwrite_a=True, assume_a="gen")
    except (la.LinAlgError, la.LinAlgWarning) as exc:
        raise NumericalError(f"stationary solve failed: {exc}") from exc

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
    return StationaryDistribution(phi=phi)
