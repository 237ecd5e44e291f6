import pytest

from hpmetric import quotient, verify
from hpmetric.generators import GluedCyclesSpec, gen_glued_cycles
from hpmetric.graphs import row_normalize
from hpmetric.rng import stream
from hpmetric.verify import _oracle_pairs, run_levels


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
