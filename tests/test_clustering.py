import numpy as np
import pytest

from hpmetric.clustering import (empirical_p_value, kmeans, kmedoids, pca_embed,
                                 purity_accuracy)
from hpmetric.errors import InputError

from oracles import oracle_best_two_partition, oracle_one_median, oracle_purity


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

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(InputError):
            kmedoids(np.zeros((2, 2)), 3, seed=0)


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
        for _ in range(20):
            truth = rng.integers(0, 4, size=30)
            labels = rng.integers(0, 4, size=30)
            assert purity_accuracy(labels, truth) == pytest.approx(
                oracle_purity(labels, truth, 4))

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

