import tracemalloc

import numpy as np
import pytest

from hpmetric import clustering
from hpmetric.clustering import (empirical_p_value, kmeans, kmedoids, pca_embed,
                                 purity_accuracy)
from hpmetric.errors import InputError
from hpmetric.generators import GluedCyclesSpec, gen_glued_cycles
from hpmetric.graphs import row_normalize
from hpmetric.hitting import hitting_fast
from hpmetric.metric import hp_distance, hp_similarity
from hpmetric.stationary import stationary_distribution

from oracles import oracle_best_two_partition, oracle_one_median, oracle_p_value, oracle_purity


class TestPca:
    def test_identical_rows_embed_to_zero(self):
        M = np.tile([1.0, 2.0, 3.0], (5, 1))
        with pytest.warns(RuntimeWarning):
            coords, ratios = pca_embed(M, 2)
        assert np.allclose(coords, 0.0)

    def test_rank_one_explains_everything(self):
        u = np.array([1.0, 2.0, 3.0, 4.0])
        M = np.outer(u, [1.0, -1.0, 0.5])
        with pytest.warns(RuntimeWarning):
            coords, ratios = pca_embed(M, 2)
        assert ratios[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(ratios[1]) <= 1e-12

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(0)
        M = rng.random((20, 6))
        c1, _ = pca_embed(M, 3)
        c2, _ = pca_embed(M, 3)
        assert np.array_equal(c1, c2)

    def test_variance_ordering(self):
        rng = np.random.default_rng(1)
        M = rng.random((30, 8))
        _, ratios = pca_embed(M, 5)
        assert all(ratios[i] >= ratios[i + 1] - 1e-15 for i in range(4))

    def test_tied_components_warn(self):
        # The glued chain's d^(1/2) has two singular values 2.5e-14 apart,
        # below n u S_1 = 3.8e-13: the first two coordinates are any rotation.
        tm = row_normalize(gen_glued_cycles(GluedCyclesSpec(5, 40, 3)))
        D = hp_distance(hp_similarity(hitting_fast(tm), stationary_distribution(tm), 0.5)).D
        with pytest.warns(RuntimeWarning, match="nearly tie"):
            pca_embed(D, 2)

    @pytest.mark.parametrize("dims", [-1, 0, 4])
    def test_dims_out_of_range_rejected(self, dims):
        with pytest.raises(InputError):
            pca_embed(np.eye(3), dims)


class TestKmeans:
    def test_two_separated_clouds(self):
        rng = np.random.default_rng(2)
        X = np.vstack([rng.normal(0, 0.1, (20, 2)), rng.normal(50, 0.1, (20, 2))])
        labels = kmeans(X, 2, restarts=3, seed=0)
        assert len(set(labels[:20])) == 1
        assert len(set(labels[20:])) == 1
        assert labels[0] != labels[-1]

    def test_identical_points_zero_inertia(self):
        X = np.ones((10, 2))
        labels = kmeans(X, 3, restarts=2, seed=1)
        assert labels.shape == (10,)

    def test_one_dimensional_oracle(self):
        pts = [0.0, 1.0, 10.0, 11.0]
        labels = kmeans(np.array(pts), 2, restarts=5, seed=3)
        groups = frozenset(
            frozenset(p for p, l in zip(pts, labels) if l == c) for c in set(labels)
        )
        assert groups == oracle_best_two_partition(pts)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(InputError):
            kmeans(np.zeros((3, 2)), 4, seed=0)

    @pytest.mark.parametrize("k, restarts", [(0, 5), (2, 0)])
    def test_bad_counts_rejected(self, k, restarts):
        with pytest.raises(InputError):
            kmeans(np.eye(3), k, restarts=restarts, seed=0)

    def test_seed_determinism(self):
        rng = np.random.default_rng(5)
        X = rng.random((40, 3))
        assert np.array_equal(kmeans(X, 4, seed=9), kmeans(X, 4, seed=9))


class TestKmedoids:
    def test_block_distance_matrix(self):
        n = 12
        D = np.full((n, n), 10.0)
        for b in range(3):
            D[np.ix_(range(4 * b, 4 * b + 4), range(4 * b, 4 * b + 4))] = 0.1
        np.fill_diagonal(D, 0.0)
        labels = kmedoids(D, 3, restarts=5, seed=0)
        for b in range(3):
            assert len(set(labels[4 * b:4 * b + 4])) == 1
        assert len(set(labels)) == 3

    def test_k_equals_n(self):
        rng = np.random.default_rng(3)
        X = rng.random((6, 2))
        D = np.linalg.norm(X[:, None] - X[None, :], axis=2)
        labels = kmedoids(D, 6, restarts=1, seed=0)
        assert sorted(labels) == list(range(6))

    def test_one_median_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.random((15, 2))
        D = np.linalg.norm(X[:, None] - X[None, :], axis=2)
        labels = kmedoids(D, 1, restarts=4, seed=2)
        assert len(set(labels)) == 1
        # recover the chosen medoid as the point minimizing total distance
        # within the single cluster
        med = oracle_one_median(D)
        costs = D.sum(axis=0)
        assert costs[med] == costs.min()

    def test_empty_cluster_is_reseeded(self):
        # Two locations and three medoids: two medoids share a location, and
        # the later one's cluster starts empty.
        x = np.array([0.0] * 5 + [3.0] * 4)
        D = np.abs(x[:, None] - x[None, :])
        for seed in range(4):
            labels = kmedoids(D, 3, restarts=2, seed=seed)
            assert len(set(labels[:5])) == len(set(labels[5:])) == 1
            assert labels[0] != labels[5]

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(InputError):
            kmedoids(np.zeros((2, 2)), 3, seed=0)

    @pytest.mark.parametrize("k, restarts", [(0, 5), (2, 0)])
    def test_bad_counts_rejected(self, k, restarts):
        with pytest.raises(InputError):
            kmedoids(1.0 - np.eye(3), k, restarts=restarts, seed=0)


class TestPurity:
    def test_exact_match(self):
        assert purity_accuracy([0, 1, 2, 0], [0, 1, 2, 0]) == 1.0

    def test_permuted_match(self):
        assert purity_accuracy([2, 0, 1, 2], [0, 1, 2, 0]) == 1.0

    def test_single_label_against_balanced(self):
        truth = [0] * 10 + [1] * 10 + [2] * 10
        assert purity_accuracy([0] * 30, truth) == pytest.approx(1 / 3)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(11)
        for k in range(1, 9):
            for _ in range(12):
                sides = [k, int(rng.integers(1, k + 1))]
                rng.shuffle(sides)
                labels = rng.integers(0, sides[0], size=int(rng.integers(1, 40)))
                truth = rng.integers(0, sides[1], size=labels.size)
                assert purity_accuracy(labels, truth) == oracle_purity(labels, truth, k)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            purity_accuracy([], [])

    def test_too_many_labels_rejected(self):
        with pytest.raises(InputError):
            purity_accuracy(list(range(9)), list(range(9)))


class TestEmpiricalPValue:
    def test_perfect_accuracy_minimal_p(self):
        p = empirical_p_value(1.0, n=300, k=3, trials=500, seed=0)
        assert p == pytest.approx(1 / 501)

    def test_zero_accuracy_p_one(self):
        assert empirical_p_value(0.0, n=30, k=3, trials=200, seed=1) == 1.0

    def test_chance_level_p_one(self):
        # Best-permutation purity of ANY labeling against balanced truth is
        # >= 1/k (the max over permutations dominates their mean, which is
        # exactly 1/k), so the tail probability at chance level is 1.
        p = empirical_p_value(1 / 3, n=300, k=3, trials=800, seed=2)
        assert p == 1.0

    def test_slightly_above_concentration_point(self):
        # Random-label purity concentrates just above 1/k; by 0.45 the tail
        # is empty for n=300.
        p = empirical_p_value(0.45, n=300, k=3, trials=400, seed=3)
        assert p == pytest.approx(1 / 401)

    def test_seeded(self):
        a = empirical_p_value(0.4, 60, 3, trials=300, seed=5)
        b = empirical_p_value(0.4, 60, 3, trials=300, seed=5)
        assert a == b

    # (k, n, median best agreement of random labelings): accuracies at it and
    # one node to either side lie in the bulk of the null distribution.
    @pytest.mark.parametrize("k, n, median", [
        (1, 61, 61), (1, 90, 90), (2, 61, 33), (2, 90, 48), (3, 61, 25), (3, 90, 36),
        (5, 61, 20), (5, 90, 27), (8, 61, 18), (8, 90, 24)])
    def test_matches_per_trial_oracle(self, k, n, median):
        for agree in (median - 1, median, median + 1):
            p = empirical_p_value(agree / n, n, k, trials=200, seed=k)
            assert p == oracle_p_value(agree / n, n, k, trials=200, seed=k)
            if agree == median and k > 1:
                assert 1 / 201 < p < 1

    def test_scratch_is_linear_in_n(self):
        # The labelings are drawn and counted one at a time: a (trials, n)
        # array of them would be 16 MB here.
        n, k, trials = 20000, 3, 100
        tracemalloc.start()
        try:
            empirical_p_value(0.34, n, k, trials=trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * n + 8 * trials * k * k * 2**k

    @pytest.mark.parametrize("n, k, trials", [(30, 0, 10), (30, 9, 10), (30, -1, 10),
                                              (0, 3, 10), (-5, 3, 10), (30, 3, 0)])
    def test_bad_arguments_rejected_before_drawing(self, n, k, trials, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew before checking the arguments")

        monkeypatch.setattr(clustering, "stream", no_draws)
        with pytest.raises(InputError):
            empirical_p_value(0.5, n, k, trials=trials)
