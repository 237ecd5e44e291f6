import tracemalloc

import numpy as np
import pytest

from hpmetric.errors import InputError, NumericalError, ToleranceError
from hpmetric.hitting import hitting_fast
from hpmetric.metric import (HpDistance, HpSimilarity, degenerate_pairs, hp_distance,
                             hp_similarity, verify_metric_axioms)
from hpmetric.stationary import StationaryDistribution, stationary_distribution

from conftest import directed_cycle, pipeline, random_chain

LN2 = np.log(2.0)


class TestSimilarity:
    def test_cycle_beta_half_all_ones(self):
        tm = directed_cycle(4)
        phi, Q, _ = pipeline(tm)
        A = hp_similarity(Q, phi, 0.5).A
        off = ~np.eye(4, dtype=bool)
        assert np.allclose(A[off], 1.0, atol=1e-12)
        assert np.array_equal(np.diag(A), np.ones(4))

    def test_cycle_beta_one_quarter(self):
        tm = directed_cycle(4)
        phi, Q, _ = pipeline(tm)
        A = hp_similarity(Q, phi, 1.0).A
        off = ~np.eye(4, dtype=bool)
        assert np.allclose(A[off], 0.25, atol=1e-12)

    def test_glued_table_values(self, glued_342):
        phi, Q, _ = pipeline(glued_342)
        A = hp_similarity(Q, phi, 0.5).A
        assert A[3, 4] == pytest.approx(1.0, abs=1e-10)            # same branch
        assert A[3, 7] == pytest.approx(0.5, abs=1e-10)            # cross branch
        assert A[0, 3] == pytest.approx(2 ** -0.5, abs=1e-10)      # backbone-branch
        assert A[0, 1] == pytest.approx(1.0, abs=1e-10)            # backbone pair

    def test_geometric_mean_identity_at_half(self):
        tm = random_chain(20, seed=3)
        phi, Q, _ = pipeline(tm)
        A = hp_similarity(Q, phi, 0.5).A
        expected = np.sqrt(Q.Q * Q.Q.T)
        np.fill_diagonal(expected, 1.0)
        assert np.abs(A - expected).max() <= 1e-10

    def test_symmetry_recorded_and_enforced(self):
        tm = random_chain(15, seed=8)
        phi, Q, _ = pipeline(tm)
        sim = hp_similarity(Q, phi, 0.75)
        assert sim.asymmetry <= 1e-10
        assert np.array_equal(sim.A, sim.A.T)

    def test_beta_below_half_rejected(self):
        tm = directed_cycle(3)
        phi, Q, _ = pipeline(tm)
        with pytest.raises(InputError):
            hp_similarity(Q, phi, 0.49)

    @pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
    def test_non_finite_beta_rejected(self, beta):
        tm = directed_cycle(3)
        phi, Q, _ = pipeline(tm)
        with pytest.raises(InputError, match="finite"):
            hp_similarity(Q, phi, beta)

    def test_mismatched_inputs_rejected(self):
        tm = random_chain(10, seed=1)
        other = random_chain(10, seed=2)
        Q = hitting_fast(tm)
        phi_wrong = stationary_distribution(other)
        with pytest.raises(NumericalError, match="inconsistent"):
            hp_similarity(Q, phi_wrong, 0.5)

    @pytest.mark.parametrize("nb,nc,C", [(3, 4, 2), (5, 55, 2), (2, 3, 4)])
    @pytest.mark.parametrize("beta", [0.5, 0.75, 1.0])
    def test_glued_beta_scaling_law(self, nb, nc, C, beta):
        # After dividing by (n_b + n_c)^(1 - 2 beta), the similarity depends
        # only on C: 1/C^(2b-1) same branch, 1/(2 C^(2b-1)) across branches,
        # C^-b backbone<->branch, 1 along the backbone.
        from hpmetric.generators import GluedCyclesSpec, gen_glued_cycles
        from hpmetric.graphs import row_normalize

        tm = row_normalize(gen_glued_cycles(GluedCyclesSpec(nb, nc, C)))
        phi, Q, _ = pipeline(tm)
        A = hp_similarity(Q, phi, beta).A / (nb + nc) ** (1 - 2 * beta)
        b, c1, c2 = 0, nb, nb + nc
        assert A[c1, c1 + 1] == pytest.approx(C ** (1 - 2 * beta), abs=1e-8)
        assert A[c1, c2] == pytest.approx(C ** (1 - 2 * beta) / 2, abs=1e-8)
        assert A[b, c1] == pytest.approx(C ** -beta, abs=1e-8)
        if nb > 1:
            assert A[b, 1] == pytest.approx(1.0, abs=1e-8)

    def test_monotone_decreasing_in_beta(self):
        tm = random_chain(12, seed=6)
        phi, Q, _ = pipeline(tm)
        prev = None
        off = ~np.eye(12, dtype=bool)
        for beta in (0.5, 0.7, 1.0, 1.5):
            A = hp_similarity(Q, phi, beta).A
            if prev is not None:
                assert (A[off] < prev[off]).all()
            prev = A


class TestDistance:
    def test_two_cycle_pseudo(self, two_cycle):
        phi, Q, _ = pipeline(two_cycle)
        dist = hp_distance(hp_similarity(Q, phi, 0.5))
        assert np.allclose(dist.D, 0.0, atol=1e-12)
        assert dist.is_pseudo

    def test_k3_value(self, k3):
        # -ln(3/4) from the exact hitting probability with uniform phi.
        phi, Q, _ = pipeline(k3)
        dist = hp_distance(hp_similarity(Q, phi, 0.5))
        off = ~np.eye(3, dtype=bool)
        assert np.allclose(dist.D[off], -np.log(0.75), atol=1e-12)
        assert not dist.is_pseudo

    def test_glued_table_distances(self, glued_342):
        phi, Q, dist = pipeline(glued_342)
        assert dist.D[3, 7] == pytest.approx(LN2, abs=1e-10)
        assert dist.D[0, 3] == pytest.approx(LN2 / 2, abs=1e-10)
        assert dist.D[0, 1] == pytest.approx(0.0, abs=1e-10)
        assert dist.is_pseudo

    @pytest.mark.parametrize("beta", [0.5, 0.75])
    @pytest.mark.parametrize("case", ["two-cycle", "glued", "random", "synthetic"])
    def test_bits_match_out_of_place_formula(self, beta, case, two_cycle, glued_342):
        if case == "synthetic":
            # Off-diagonal ones give -log(1) = -0.0, which must become +0.0;
            # a non-unit diagonal must still read 0.
            A = np.array([[0.5, 1.0, 1e-300], [1.0, 2.0, 0.3], [1e-300, 0.3, 1.0]])
            sim = HpSimilarity(beta=beta, A=A, asymmetry=0.0)
        else:
            tm = {"two-cycle": two_cycle, "glued": glued_342,
                  "random": random_chain(30, seed=8)}[case]
            phi = stationary_distribution(tm)
            sim = hp_similarity(hitting_fast(tm), phi, beta)
        dist = hp_distance(sim)
        want = -np.log(sim.A) + 0.0
        np.fill_diagonal(want, 0.0)
        off = ~np.eye(sim.n, dtype=bool)
        assert np.array_equal(dist.D.view(np.int64), want.view(np.int64))
        assert dist.is_pseudo == bool(beta == 0.5 and (want[off] < 1e-9).any())

    def test_one_by_one_is_not_pseudo(self):
        dist = hp_distance(HpSimilarity(beta=0.5, A=np.ones((1, 1)), asymmetry=0.0))
        assert dist.D.tolist() == [[0.0]] and not dist.is_pseudo

    def test_distance_memory_within_its_output(self):
        n = 400
        A = np.random.default_rng(2).random((n, n)) + 0.5
        sim = HpSimilarity(beta=0.5, A=A, asymmetry=0.0)
        tracemalloc.start()
        try:
            hp_distance(sim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n * n

    def test_triangle_slack_identity(self):
        # D[i,j] - D[i,k] - D[k,j] = (2b-1) ln phi_k + ln(Q_ik Q_kj / Q_ij),
        # which is <= 0 for beta >= 1/2 since both terms are nonpositive.
        tm = random_chain(10, seed=14)
        phi = stationary_distribution(tm)
        Q = hitting_fast(tm).Q
        for beta in (0.5, 0.8):
            D = hp_distance(hp_similarity(Q, phi, beta)).D
            for (i, k, j) in [(0, 1, 2), (3, 7, 5), (9, 2, 4)]:
                slack = D[i, j] - D[i, k] - D[k, j]
                expected = (2 * beta - 1) * np.log(phi.phi[k]) + np.log(
                    Q[i, k] * Q[k, j] / Q[i, j])
                assert slack == pytest.approx(expected, abs=1e-9)
                assert slack <= 1e-12


class TestAxioms:
    def test_random_chain_passes(self):
        tm = random_chain(50, seed=31)
        phi, Q, _ = pipeline(tm)
        dist = hp_distance(hp_similarity(Q, phi, 0.75))
        rep = verify_metric_axioms(dist)
        assert rep["symmetry_ok"] and rep["triangle_ok"] and rep["positivity_ok"]

    def test_two_cycle_positivity_fails(self, two_cycle):
        phi, Q, dist = pipeline(two_cycle)
        rep = verify_metric_axioms(dist)
        assert rep["symmetry_ok"] and rep["triangle_ok"]
        assert not rep["positivity_ok"]

    def test_directed_cycle_triangle_tight(self):
        tm = directed_cycle(5)
        phi, Q, dist = pipeline(tm)
        rep = verify_metric_axioms(dist)
        assert abs(rep["worst_violations"]["triangle"]) <= 1e-12

    def test_single_violating_pivot_found_above_500_nodes(self):
        # Raise D[4, 11] 1e-6 above its best path through one pivot; the
        # second-best pivot is far away, so exactly one triple per
        # orientation violates the triangle inequality.
        tm = random_chain(520, seed=3)
        phi, Q, dist = pipeline(tm, beta=0.75)
        D = dist.D.copy()
        legs = D[4] + D[:, 11]
        legs[[4, 11]] = np.inf
        best, second = np.sort(legs)[:2]
        assert second - best > 1e-2
        D[4, 11] = D[11, 4] = best + 1e-6
        rep = verify_metric_axioms(HpDistance(beta=0.75, D=D, is_pseudo=False))
        assert rep["symmetry_ok"] and not rep["triangle_ok"]
        assert rep["worst_violations"]["triangle"] == pytest.approx(1e-6, rel=1e-6)


class TestDegeneracy:
    def test_directed_cycle_single_class(self):
        tm = directed_cycle(6)
        phi, Q, _ = pipeline(tm)
        rep = degenerate_pairs(Q, phi)
        assert rep.classes == [list(range(6))]
        assert rep.degenerate

    def test_k3_all_singletons(self, k3):
        phi, Q, _ = pipeline(k3)
        rep = degenerate_pairs(Q, phi)
        assert rep.classes == [[0], [1], [2]]
        assert not rep.degenerate

    def test_glued_classes(self, glued_342):
        phi, Q, _ = pipeline(glued_342)
        rep = degenerate_pairs(Q, phi)
        assert rep.classes == [[0, 1, 2], [3, 4, 5, 6], [7, 8, 9, 10]]

    def test_phi_constant_within_classes(self, glued_342):
        phi, Q, _ = pipeline(glued_342)
        rep = degenerate_pairs(Q, phi)
        for cls in rep.non_singleton():
            assert phi.phi[cls].max() - phi.phi[cls].min() <= 1e-10

    def test_inconsistent_closure_rejected(self):
        # A fabricated Q linking 0~1 and 1~2 but with Q[0,2] far from 1 cannot
        # be a genuine equivalence relation.
        Q = np.array([
            [0.0, 1.0, 0.2],
            [1.0, 0.0, 1.0],
            [0.2, 1.0, 0.0],
        ])
        phi = StationaryDistribution(phi=np.full(3, 1 / 3))
        with pytest.raises(ToleranceError):
            degenerate_pairs(Q, phi, tol_deg=1e-9)
