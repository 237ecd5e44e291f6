"""Invariant distribution of an irreducible chain.

Solved directly as a linear system rather than by power iteration, so
periodic chains (e.g. directed cycles) are handled exactly.
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


@dataclass(frozen=True)
class StationaryDistribution:
    phi: np.ndarray


@per_chain
def stationary_distribution(tm: TransitionMatrix) -> StationaryDistribution:
    """Solve P^T phi = phi, sum(phi) = 1 by LU with partial pivoting.

    The balance system has rank n-1 for an irreducible chain; the last
    equation is replaced by the normalization constraint, which keeps the
    system nonsingular regardless of periodicity.  Solved once per chain:
    later calls on the same ``tm`` return the same result, whose ``phi`` is
    read-only.
    """
    n = tm.n
    # P^T - I and the normalization row, built in the one buffer that the
    # solve then factors in place.  "gen" skips scipy's structure detection:
    # from n = 3 it finds no structure in A, and at n = 2 its symmetric path
    # (A is symmetric when P[1, 0] = 1) crashes when told to overwrite A in
    # scipy 1.17.
    A = tm.P.T.copy(order="F")
    A.flat[:: n + 1] -= 1.0
    A[n - 1, :] = 1.0
    b = np.zeros(n)
    b[n - 1] = 1.0
    try:
        phi = la.solve(A, b, overwrite_a=True, assume_a="gen")
    except la.LinAlgError as exc:
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
