"""Counter-based random streams.

Every randomized routine in the package draws from a Philox stream keyed by
(seed, stream index), so independent streams can be handed to restarts or
grid cells without any shared state, and results do not depend on execution
order or thread count.  The Monte Carlo walker advances all its walks
together on the one stream (seed, 0), one uniform per running walk and step:
its result is a deterministic function of (P, i, j, walks, seed), and runs
with different walk counts are not prefixes of each other.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the Philox stream for (seed, index)."""
    return np.random.Generator(np.random.Philox(key=[seed & _MASK64, index & _MASK64]))
