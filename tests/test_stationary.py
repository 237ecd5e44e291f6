import pickle

import numpy as np
import pytest

from hpmetric import stationary
from hpmetric.errors import NumericalError
from hpmetric.generators import gen_er_cycle, gen_random_strongly_connected
from hpmetric.graphs import TransitionMatrix, make_digraph, row_normalize
from hpmetric.hitting import hitting_by_reduction, hitting_fast
from hpmetric.metric import hp_similarity
from hpmetric.stationary import stationary_distribution

from conftest import directed_cycle, random_chain, two_k3_bridge
from oracles import oracle_stationary_lu


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


def test_in_place_solve_keeps_the_bits(acceptance_suite):
    for tm in acceptance_suite:
        assert np.array_equal(stationary_distribution(tm).phi, oracle_stationary_lu(tm.P))


def er_cycle_100():
    return row_normalize(gen_er_cycle(100, 100, 0.05, 3.0, seed=1))


def test_phi_does_not_depend_on_the_numbering():
    # No state's equation may be singled out: a solve that replaced the last
    # one moved phi by 4e-8 relative between numberings of this chain, enough
    # for Q and phi to disagree in the similarity of one of them.
    tm = er_cycle_100()
    phi = stationary_distribution(tm).phi
    hp_similarity(hitting_fast(tm), stationary_distribution(tm), 0.5)
    for seed in range(10):
        perm = np.random.default_rng(seed).permutation(tm.n)
        relabeled = TransitionMatrix(tm.n, tm.P[np.ix_(perm, perm)])
        got = stationary_distribution(relabeled)
        assert np.abs(got.phi / phi[perm] - 1.0).max() <= 1e-8
        hp_similarity(hitting_fast(relabeled), got, 0.5)


def test_phi_agrees_with_state_reduction():
    # phi_j / phi_0 = Q[0, j] / Q[j, 0], with Q from a method that uses no phi.
    tm = er_cycle_100()
    Q = hitting_by_reduction(tm)
    ref = np.r_[1.0, Q[0, 1:] / Q[1:, 0]]
    ref /= ref.sum()
    assert np.abs(stationary_distribution(tm).phi / ref - 1.0).max() <= 1e-8


@pytest.mark.parametrize("eps", [1e-15, 1e-16, 1e-300])
def test_nearly_reducible_chain_raises(eps):
    # At 1e-15 the LU completes with rcond 2e-17: scipy's warning is an error.
    with pytest.raises(NumericalError, match="stationary solve failed"):
        stationary_distribution(two_k3_bridge(eps))


@pytest.mark.parametrize("solution, message", [
    (lambda n: np.r_[-1e-6, np.full(n - 1, 1.0 / (n - 1))], "negative mass"),
    (lambda n: np.linspace(1.0, 2.0, n), "residual"),
], ids=["negative", "residual"])
def test_failed_solve_raises(monkeypatch, solution, message):
    tm = random_chain(10, seed=1)
    monkeypatch.setattr(stationary, "getrs", lambda *args, **kwargs: (solution(tm.n), 0))
    with pytest.raises(NumericalError, match=message):
        stationary_distribution(tm)


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
