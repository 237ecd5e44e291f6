import numpy as np
import pytest

from hpmetric.generators import (GluedCyclesSpec, gen_glued_cycles,
                                 gen_random_strongly_connected)
from hpmetric.graphs import make_digraph, row_normalize
from hpmetric.hitting import hitting_fast
from hpmetric.metric import hp_distance, hp_similarity
from hpmetric.rng import stream
from hpmetric.stationary import stationary_distribution


@pytest.fixture
def two_cycle():
    return row_normalize(make_digraph([[0, 1], [1, 0]]))


@pytest.fixture
def k3():
    return row_normalize(make_digraph([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))


@pytest.fixture
def glued_342():
    return row_normalize(gen_glued_cycles(GluedCyclesSpec(3, 4, 2)))


def directed_cycle(n):
    W = np.zeros((n, n))
    for i in range(n):
        W[i, (i + 1) % n] = 1.0
    return row_normalize(make_digraph(W))


def two_k3_bridge(eps):
    """Two triangles joined by a bridge of weight eps in each direction."""
    W = np.zeros((6, 6))
    W[:3, :3] = 1.0
    W[3:, 3:] = 1.0
    np.fill_diagonal(W, 0.0)
    W[0, 3] = W[3, 0] = eps
    return row_normalize(make_digraph(W))


def pipeline(tm, beta=0.5):
    phi = stationary_distribution(tm)
    Q = hitting_fast(tm)
    dist = hp_distance(hp_similarity(Q, phi, beta))
    return phi, Q, dist


def random_chain(n, seed):
    return row_normalize(gen_random_strongly_connected(n, seed=seed))


def named_chain(name, acceptance_suite):
    """The chain a test id names: acceptance-T, glued-NB-NC-C, cycle-N,
    random-N (seed N) or two-k3-EPS."""
    family, _, arg = name.partition("-")
    if family == "acceptance":
        return acceptance_suite[int(arg)]
    if family == "glued":
        return row_normalize(gen_glued_cycles(GluedCyclesSpec(*map(int, arg.split("-")))))
    if family == "cycle":
        return directed_cycle(int(arg))
    if family == "random":
        return random_chain(int(arg), seed=int(arg))
    return two_k3_bridge(float(arg.partition("-")[2]))


@pytest.fixture(scope="session")
def acceptance_suite():
    """50 random strongly connected digraphs with n in [5, 200], shared by the
    detailed-balance, fast-path, and metric-axiom acceptance criteria."""
    rng = stream(20240501, 0)
    sizes = rng.integers(5, 201, size=50)
    return [random_chain(int(n), seed=1000 + t) for t, n in enumerate(sizes)]
