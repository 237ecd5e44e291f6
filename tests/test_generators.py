import numpy as np
import pytest

from hpmetric.errors import InputError
from hpmetric.generators import (GeometricGraphSpec, GluedCyclesSpec,
                                 PlantedPartitionSpec, gen_er_cycle,
                                 gen_geometric, gen_glued_cycles,
                                 gen_planted_partition,
                                 gen_random_strongly_connected)
from hpmetric.graphs import row_normalize, strongly_connected_components


class TestGluedCycles:
    def test_node_and_edge_counts(self):
        # (n_b - 1) backbone edges + C branch entries + C(n_c - 1) branch
        # interiors + C closures = 12 for (3, 4, 2).
        g = gen_glued_cycles(GluedCyclesSpec(3, 4, 2))
        assert g.n == 11
        assert g.weights.nnz == 12

    def test_single_branch_is_cycle(self):
        g = gen_glued_cycles(GluedCyclesSpec(4, 3, 1))
        W = np.asarray(g.weights.todense())
        assert g.n == 7
        assert np.array_equal(W.sum(axis=0), np.ones(7))
        assert np.array_equal(W.sum(axis=1), np.ones(7))
        # strongly connected single loop
        assert len(strongly_connected_components(W)) == 1

    def test_one_node_backbone_parallel_branches(self):
        g = gen_glued_cycles(GluedCyclesSpec(1, 1, 3))
        W = np.asarray(g.weights.todense())
        assert g.n == 4
        assert W[0, 1] == W[0, 2] == W[0, 3] == 1.0
        assert W[1, 0] == W[2, 0] == W[3, 0] == 1.0

    def test_invalid_spec(self):
        with pytest.raises(InputError):
            GluedCyclesSpec(0, 4, 2)


class TestErCycle:
    def test_shape_and_connectivity(self):
        g = gen_er_cycle(20, 8, 0.5, 3.0, seed=1)
        assert g.n == 28
        assert len(strongly_connected_components(g.weights)) == 1

    def test_heavy_in_edges_per_cycle_node(self):
        g = gen_er_cycle(20, 8, 0.5, 3.0, seed=2)
        W = np.asarray(g.weights.todense())
        for c in range(8):
            node = 20 + c
            heavy = (W[:20, node] >= 3.0).sum()
            # 19 draws with replacement from 20 sources, merged
            assert 5 <= heavy <= 19

    def test_no_self_loops_by_default(self):
        g = gen_er_cycle(20, 8, 0.5, 3.0, seed=3)
        W = np.asarray(g.weights.todense())
        assert np.all(np.diag(W) == 0)

    def test_self_loops_flag(self):
        g = gen_er_cycle(40, 4, 0.9, 2.0, seed=0, self_loops=True)
        W = np.asarray(g.weights.todense())
        assert np.diag(W)[:40].sum() > 0

    def test_single_cycle_node_self_loop(self):
        g = gen_er_cycle(10, 1, 0.8, 2.0, seed=0)
        W = np.asarray(g.weights.todense())
        assert W[10, 10] == 1.0  # the 1-cycle closes on itself

    def test_seeded_determinism(self):
        a = gen_er_cycle(15, 5, 0.5, 3.0, seed=9)
        b = gen_er_cycle(15, 5, 0.5, 3.0, seed=9)
        assert (a.weights != b.weights).nnz == 0


class TestPlantedPartition:
    def test_extreme_probabilities(self):
        g, truth = gen_planted_partition(
            PlantedPartitionSpec(9, 3, p_in=1.0, p_out=0.999999), seed=0)
        W = np.asarray(g.weights.todense())
        assert np.array_equal(W, 1 - np.eye(9))

    def test_disconnected_when_p_out_zero(self):
        g, _ = gen_planted_partition(PlantedPartitionSpec(9, 3, 1.0, 0.0), seed=0)
        assert len(strongly_connected_components(g.weights)) > 1

    def test_density_concentration(self):
        spec = PlantedPartitionSpec(300, 3, p_in=0.5, p_out=0.05)
        g, truth = gen_planted_partition(spec, seed=4)
        W = np.asarray(g.weights.todense())
        same = truth[:, None] == truth[None, :]
        np.fill_diagonal(same, False)
        m = same.sum()
        density = W[same].sum() / m
        sigma = np.sqrt(spec.p_in * (1 - spec.p_in) / m)
        assert abs(density - spec.p_in) <= 5 * sigma

    def test_unbalanced_rejected(self):
        with pytest.raises(InputError):
            PlantedPartitionSpec(10, 3, 0.5, 0.1)

    def test_zero_communities_rejected(self):
        with pytest.raises(InputError):
            PlantedPartitionSpec(10, 0, 0.5, 0.1)


class TestGeometric:
    def test_two_point_circle_weight(self):
        g, pts = gen_geometric(GeometricGraphSpec("circle", 2, gamma=1.0), seed=0)
        W = np.asarray(g.weights.todense())
        d2 = ((pts[0] - pts[1]) ** 2).sum()
        assert W[0, 1] == pytest.approx(np.exp(-d2))
        assert W[0, 1] == pytest.approx(W[1, 0])

    def test_torus_lattice_degree_four(self):
        g, pts = gen_geometric(GeometricGraphSpec("torus-lattice", 100), seed=0)
        W = np.asarray(g.weights.todense())
        assert g.n == 100
        assert np.array_equal(W.sum(axis=1), np.full(100, 4.0))
        assert np.array_equal(W, W.T)

    def test_torus_translation_invariance(self):
        spec = GeometricGraphSpec("flat-torus", 30, gamma=1.0)
        g, pts = gen_geometric(spec, seed=1)
        W = np.asarray(g.weights.todense())
        from hpmetric.generators import _pairwise_sq_dist

        shifted = np.mod(pts + 1.234, 2 * np.pi)
        d2s = _pairwise_sq_dist(shifted, periodic=True)
        W2 = np.exp(-d2s)
        np.fill_diagonal(W2, 0.0)
        assert np.abs(W - W2).max() <= 1e-10

    def test_hole_avoided(self):
        g, pts = gen_geometric(GeometricGraphSpec("torus-with-hole", 200), seed=2)
        r = np.linalg.norm(pts - np.array([np.pi, np.pi]), axis=1)
        assert r.min() >= np.pi / 2

    def test_h_domain_region(self):
        g, pts = gen_geometric(GeometricGraphSpec("H-domain", 200), seed=5)
        in_legs = np.abs(pts[:, 0] - np.pi) >= np.pi / 2
        in_bar = np.abs(pts[:, 1] - np.pi) <= np.pi / 4
        assert np.all(in_legs | in_bar)

    def test_sphere_unit_radius(self):
        g, pts = gen_geometric(GeometricGraphSpec("sphere", 50), seed=3)
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 1e-12

    def test_lattice_requires_square(self):
        with pytest.raises(InputError):
            gen_geometric(GeometricGraphSpec("torus-lattice", 90), seed=0)


class TestRandomStronglyConnected:
    @pytest.mark.parametrize("n", [5, 23, 80])
    def test_connected_and_normalizable(self, n):
        g = gen_random_strongly_connected(n, seed=n)
        assert len(strongly_connected_components(g.weights)) == 1
        tm = row_normalize(g)
        assert tm.n == n
