import pickle

import numpy as np
import pytest

from hpmetric.generators import gen_random_strongly_connected
from hpmetric.graphs import make_digraph, row_normalize
from hpmetric.hitting import hitting_fast
from hpmetric.stationary import stationary_distribution

from conftest import directed_cycle, random_chain


def test_directed_3_cycle_uniform():
    tm = directed_cycle(3)
    phi = stationary_distribution(tm).phi
    assert np.allclose(phi, 1 / 3, atol=1e-14)


def test_two_state_chain_balance():
    # phi solves phi_0 / 2 = phi_1 / 4 with phi_0 + phi_1 = 1: (1/3, 2/3).
    tm = row_normalize(make_digraph([[0.5, 0.5], [0.25, 0.75]]))
    phi = stationary_distribution(tm).phi
    assert np.allclose(phi, [1 / 3, 2 / 3], atol=1e-14)


def test_glued_cycles_closed_form():
    from hpmetric.generators import (GluedCyclesSpec, gen_glued_cycles,
                                     glued_cycles_stationary)

    for spec in (GluedCyclesSpec(3, 4, 2), GluedCyclesSpec(5, 55, 2),
                 GluedCyclesSpec(2, 3, 4)):
        tm = row_normalize(gen_glued_cycles(spec))
        phi = stationary_distribution(tm).phi
        assert np.abs(phi - glued_cycles_stationary(spec)).max() <= 1e-12


def test_periodic_two_cycle_exact(two_cycle):
    # Power iteration would not converge here; the direct solve must.
    phi = stationary_distribution(two_cycle).phi
    assert phi[0] == pytest.approx(0.5, abs=1e-15)
    assert phi[1] == pytest.approx(0.5, abs=1e-15)


def test_invariants_on_random_chains():
    for seed in range(8):
        tm = random_chain(5 + 7 * seed, seed=seed)
        phi = stationary_distribution(tm).phi
        assert abs(phi.sum() - 1.0) <= 1e-12
        assert np.abs(tm.P.T @ phi - phi).max() <= 1e-10
        assert phi.min() > 0


def test_scale_invariance():
    # c*w / c*s rounds differently than w / s, so equality holds to ulps,
    # not bitwise.
    rng = np.random.default_rng(2)
    W = rng.random((12, 12)) + 0.05
    a = stationary_distribution(row_normalize(make_digraph(W))).phi
    b = stationary_distribution(row_normalize(make_digraph(3.7 * W))).phi
    assert np.abs(a - b).max() <= 1e-13


def test_deterministic():
    # Two chains built from one graph solve separately, to the same bits.
    g = gen_random_strongly_connected(30, seed=4)
    a = stationary_distribution(row_normalize(g))
    b = stationary_distribution(row_normalize(g))
    assert a is not b
    assert np.array_equal(a.phi, b.phi)


def test_memoized_and_read_only():
    tm = random_chain(20, seed=6)
    phi = stationary_distribution(tm)
    assert stationary_distribution(tm) is phi
    with pytest.raises(ValueError):
        phi.phi[0] = 0.5



def test_pickled_chain_recomputes_read_only():
    # numpy does not pickle the read-only flag, so a copy starts with no memo
    # and its own results are read-only again.
    tm = random_chain(20, seed=6)
    phi, Q = stationary_distribution(tm).phi, hitting_fast(tm).Q
    copy = pickle.loads(pickle.dumps(tm))
    phi2, Q2 = stationary_distribution(copy).phi, hitting_fast(copy).Q
    assert phi2 is not phi and Q2 is not Q
    assert not phi2.flags.writeable and not Q2.flags.writeable
    assert np.array_equal(phi2, phi) and np.array_equal(Q2, Q)
    assert stationary_distribution(tm).phi is phi
