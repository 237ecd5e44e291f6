import numpy as np
import pytest

from hpmetric import hitting, quotient, verify
from hpmetric.generators import GluedCyclesSpec, gen_glued_cycles
from hpmetric.graphs import row_normalize
from hpmetric.hitting import HittingProbabilities, hitting_fast
from hpmetric.metric import hp_distance, hp_similarity, verify_metric_axioms
from hpmetric.rng import stream
from hpmetric.stationary import stationary_distribution
from hpmetric.verify import (TRIANGLE_TOL, _oracle_pairs, level_metric, run_levels,
                             submultiplicativity_slack)

from conftest import named_chain, random_chain, two_k3_bridge
from oracles import oracle_submultiplicativity_slack, oracle_triangle_slack


def listed_pairs(n, pairs, rng):
    # Selection by materializing every off-diagonal pair, as level_oracle
    # used to do it.
    all_pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    if len(all_pairs) <= pairs:
        return all_pairs
    return [all_pairs[k] for k in rng.choice(len(all_pairs), size=pairs, replace=False)]


class TestOraclePairs:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 50])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_list_selection(self, n, seed):
        got = _oracle_pairs(n, 6, stream(seed, 2**32))
        assert got == listed_pairs(n, 6, stream(seed, 2**32))
        assert len(set(got)) == len(got) == min(6, n * (n - 1))
        assert all(i != j for i, j in got)


def test_run_levels_orders_each_class_once(monkeypatch):
    tm = row_normalize(gen_glued_cycles(GluedCyclesSpec(3, 3, 3)))
    calls = []
    real = quotient.order_class

    def counting(tm, members):
        calls.append(tuple(sorted(members)))
        return real(tm, members)

    monkeypatch.setattr(quotient, "order_class", counting)
    monkeypatch.setattr(verify, "order_class", counting, raising=False)
    report = run_levels(tm, ["quotient"])
    assert report["ok"]
    assert report["levels"]["quotient"]["n_classes"] < tm.n
    assert len(calls) == len(set(calls)) >= 3


def test_identity_compares_every_column(monkeypatch):
    # One entry of Q moved by 1e-6 in a column that a 10-column sample drawn
    # by stream(0, n), the sample once taken above 300 states, leaves out.
    tm = random_chain(400, seed=3)
    sampled = set(stream(0, tm.n).choice(tm.n, size=10, replace=False).tolist())
    j = min(set(range(tm.n)) - sampled)
    Q = hitting_fast(tm).Q.copy()
    Q[j + 1, j] += 1e-6
    monkeypatch.setattr(verify, "hitting_fast", lambda _: HittingProbabilities(Q=Q))
    check = verify.level_identity(tm)["fast_vs_reference"]
    assert not check["ok"]
    assert check["value"] == pytest.approx(1e-6, rel=1e-6)


@pytest.mark.parametrize("eps,reference", [(1.0, False), (1e-14, True)])
def test_identity_reports_used_reference(eps, reference):
    # On a fallback chain the fast Q is the reduction's, so the comparison
    # reads exactly 0 and the report says why.
    report = verify.level_identity(two_k3_bridge(eps))
    assert report["used_reference"] is reference
    assert (report["fast_vs_reference"]["value"] == 0.0) == reference


def test_identity_reduces_a_fallback_chain_once(monkeypatch):
    calls = []
    real = hitting.hitting_by_reduction

    def counting(tm):
        calls.append(tm.n)
        return real(tm)

    monkeypatch.setattr(hitting, "hitting_by_reduction", counting)
    monkeypatch.setattr(verify, "hitting_by_reduction", counting)
    report = verify.level_identity(two_k3_bridge(1e-14))
    assert report["used_reference"] is True
    assert report["fast_vs_reference"]["value"] == 0.0
    assert calls == [6]


BETAS = (0.5, 0.75, 1.0)
ORACLE_CHAINS = ([f"acceptance-{t}" for t in range(50)]
                 + ["glued-3-4-2", "glued-3-3-3", "glued-5-40-3"]
                 + [f"cycle-{n}" for n in (1, 2, 3, 7)]
                 + ["two-k3-1e-2", "two-k3-1e-4"])


def bits(x):
    return np.float64(x).tobytes()


class TestPivotSweepAgainstOracles:
    """The one pivot sweep against the per-pivot loops it replaced: every
    triple of every chain, including the repeated-index triples that decide
    glued (5, 40, 3) at beta = 1/2, where D has entries near -1.3e-14."""

    @pytest.mark.parametrize("name", ORACLE_CHAINS)
    def test_submultiplicativity_bits(self, name, acceptance_suite):
        Q = hitting_fast(named_chain(name, acceptance_suite)).Q
        assert bits(submultiplicativity_slack(Q)) == bits(oracle_submultiplicativity_slack(Q))

    @pytest.mark.parametrize("name", ORACLE_CHAINS)
    def test_triangle_bits_and_derived_betas(self, name, acceptance_suite):
        tm = named_chain(name, acceptance_suite)
        phi, Q = stationary_distribution(tm), hitting_fast(tm)
        got = level_metric(tm, BETAS)
        for beta in BETAS:
            dist = hp_distance(hp_similarity(Q, phi, beta))
            want = oracle_triangle_slack(dist.D)
            rep = verify_metric_axioms(dist, tol=TRIANGLE_TOL)
            assert bits(rep["worst_violations"]["triangle"]) == bits(want)
            assert rep["triangle_ok"] == (want <= TRIANGLE_TOL)
            derived = got[f"beta={beta:g}"]["triangle"]
            if beta == BETAS[0]:
                assert bits(derived["value"]) == bits(want)
            else:
                assert abs(derived["value"] - want) <= 1e-15
            assert derived["ok"] == (want <= TRIANGLE_TOL)

    def test_glued_5_40_3_is_decided_by_a_repeated_index(self):
        tm = row_normalize(gen_glued_cycles(GluedCyclesSpec(5, 40, 3)))
        D = hp_distance(hp_similarity(hitting_fast(tm), stationary_distribution(tm), 0.5)).D
        worst = oracle_triangle_slack(D)
        assert worst > 0.0 and D.min() < 0.0
        assert worst == float((-(D + D.T)).max())

    def test_beta_order_only_orders_the_report(self):
        # The sweep runs at the smallest beta whatever the requested order.
        tm = row_normalize(gen_glued_cycles(GluedCyclesSpec(5, 40, 3)))
        forward, backward = level_metric(tm, BETAS), level_metric(tm, BETAS[::-1])
        assert list(backward) == list(forward)[::-1]
        assert backward == forward
