import pytest

from hpmetric.rng import stream
from hpmetric.verify import _oracle_pairs


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
