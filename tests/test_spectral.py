import numpy as np
import pytest
import scipy.linalg as la

from hpmetric import hitting, spectral
from hpmetric.errors import InputError
from hpmetric.generators import GluedCyclesSpec, gen_glued_cycles
from hpmetric.graphs import make_digraph, row_normalize
from hpmetric.hitting import hitting_fast
from hpmetric.metric import hp_similarity
from hpmetric.spectral import (fiedler_vector, laplacian, operator_laplacian,
                               symmetrize)
from hpmetric.stationary import stationary_distribution

from conftest import random_chain


def undirected_path3():
    return row_normalize(make_digraph([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))


class TestSymmetrize:
    def test_additive_and_max_on_symmetric_input(self):
        tm = row_normalize(make_digraph([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
        phi = stationary_distribution(tm)
        assert np.array_equal(symmetrize(tm, phi, "additive").M, tm.P)
        assert np.array_equal(symmetrize(tm, phi, "max").M, tm.P)

    def test_two_cycle_additive(self, two_cycle):
        phi = stationary_distribution(two_cycle)
        assert np.array_equal(symmetrize(two_cycle, phi, "additive").M,
                              [[0, 1], [1, 0]])

    def test_chung_reduces_for_uniform_phi(self, two_cycle):
        phi = stationary_distribution(two_cycle)
        L = symmetrize(two_cycle, phi, "chung").M
        assert np.abs(L - (np.eye(2) - two_cycle.P)).max() <= 1e-12

    def test_chung_formula_reproducible(self):
        tm = random_chain(12, seed=9)
        phi = stationary_distribution(tm)
        L = symmetrize(tm, phi, "chung").M
        s = np.sqrt(phi.phi)
        T = (s[:, None] * tm.P) / s[None, :]
        assert np.abs(L - (np.eye(12) - (T + T.T) / 2)).max() <= 1e-10
        assert np.abs(L - L.T).max() <= 1e-10

    def test_chung_matches_normalized_laplacian_when_reversible(self):
        # Random undirected graph: row normalization gives a reversible chain,
        # where Chung's construction is the symmetric normalized Laplacian.
        rng = np.random.default_rng(4)
        W = rng.random((10, 10))
        W = W + W.T
        np.fill_diagonal(W, 0.0)
        tm = row_normalize(make_digraph(W))
        phi = stationary_distribution(tm)
        L = symmetrize(tm, phi, "chung").M
        d = W.sum(axis=1)
        Lnorm = np.eye(10) - (W / np.sqrt(np.outer(d, d)))
        assert np.abs(L - Lnorm).max() <= 1e-10

    def test_hp_matches_table(self, glued_342):
        phi = stationary_distribution(glued_342)
        A = symmetrize(glued_342, phi, "hp", beta=0.5).M
        assert A[3, 7] == pytest.approx(0.5, abs=1e-10)
        assert A[0, 3] == pytest.approx(2 ** -0.5, abs=1e-10)

    def test_hp_reuses_the_chains_q(self, monkeypatch, glued_342):
        phi = stationary_distribution(glued_342)
        A = hp_similarity(hitting_fast(glued_342), phi, 0.5).A
        inverses = []
        inv = hitting.la.inv

        def spy(M, *args, **kwargs):
            inverses.append(M)
            return inv(M, *args, **kwargs)

        monkeypatch.setattr(hitting.la, "inv", spy)
        M = symmetrize(glued_342, phi, "hp", 0.5).M
        assert inverses == []
        assert np.array_equal(M, A)

    def test_hp_requires_beta(self, glued_342):
        phi = stationary_distribution(glued_342)
        with pytest.raises(InputError):
            symmetrize(glued_342, phi, "hp")


def random_adjacency(n, seed):
    rng = np.random.default_rng(seed)
    M = rng.random((n, n))
    M = (M + M.T) / 2
    np.fill_diagonal(M, 0.0)
    return M


class TestLaplacian:
    def test_two_node(self):
        L = laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(L, [[1, -1], [-1, 1]])

    def test_k3(self):
        M = np.ones((3, 3)) - np.eye(3)
        L = laplacian(M)
        assert np.array_equal(np.diag(L), [2, 2, 2])
        assert L[0, 1] == -1

    def test_row_sums_zero_and_psd(self):
        M = random_adjacency(20, 8)
        L = laplacian(M)
        assert np.abs(L.sum(axis=1)).max() <= 1e-12
        assert np.linalg.eigvalsh(L).min() >= -1e-10

    def test_asymmetric_rejected(self):
        with pytest.raises(InputError):
            laplacian(np.array([[0.0, 1.0], [0.5, 0.0]]))


class TestFiedler:
    def test_path3_pattern(self):
        L = laplacian(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))
        v, signs = fiedler_vector(L)
        assert list(signs) == [-1, 0, 1]
        assert v[np.argmax(np.abs(v))] > 0

    def test_deterministic_sign_convention(self):
        M = random_adjacency(15, 1)
        L = laplacian(M)
        v1, _ = fiedler_vector(L)
        v2, _ = fiedler_vector(L)
        assert np.array_equal(v1, v2)

    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_glued_backbone_zero_branches_split(self, glued_342, beta):
        phi = stationary_distribution(glued_342)
        op = symmetrize(glued_342, phi, "hp", beta=beta)
        v, signs = fiedler_vector(operator_laplacian(op))
        assert np.abs(v[:3]).max() < 1e-6
        assert len(set(signs[3:7])) == 1 and len(set(signs[7:])) == 1
        assert signs[3] == -signs[7] != 0

    def test_near_degenerate_warning_on_k4(self):
        # The K4 Laplacian has eigenvalues 0, 4, 4, 4.
        L = laplacian(np.ones((4, 4)) - np.eye(4))
        with pytest.warns(RuntimeWarning, match="nearly coincide"):
            fiedler_vector(L)

    def test_large_sparse_path_agrees_with_dense(self):
        from hpmetric import spectral

        M = random_adjacency(60, 3)
        L = laplacian(M)
        v_dense, _ = fiedler_vector(L)
        original = spectral.DENSE_EIG_LIMIT
        spectral.DENSE_EIG_LIMIT = 10
        try:
            v_sparse, _ = fiedler_vector(L)
        finally:
            spectral.DENSE_EIG_LIMIT = original
        assert np.abs(np.abs(v_dense) - np.abs(v_sparse)).max() <= 1e-8


def glued_hp_laplacian(beta):
    tm = row_normalize(gen_glued_cycles(GluedCyclesSpec(3, 4, 2)))
    return operator_laplacian(symmetrize(tm, stationary_distribution(tm), "hp", beta))


def chung_laplacian(n, seed):
    tm = random_chain(n, seed=seed)
    return symmetrize(tm, stationary_distribution(tm), "chung").M


SUBSET_CASES = {
    "glued-hp-0.5": lambda: glued_hp_laplacian(0.5),
    "glued-hp-1": lambda: glued_hp_laplacian(1.0),
    "random-15": lambda: laplacian(random_adjacency(15, 1)),
    "random-60": lambda: laplacian(random_adjacency(60, 3)),
    "chung-300": lambda: chung_laplacian(300, 11),
}


class TestFiedlerSubset:
    @pytest.mark.parametrize("case", list(SUBSET_CASES))
    def test_matches_full_eigendecomposition(self, monkeypatch, case):
        L = SUBSET_CASES[case]()
        ref_vals, ref_vecs = la.eigh(L)
        ref = ref_vecs[:, 1] / la.norm(ref_vecs[:, 1])

        calls = []
        eigh = spectral.la.eigh

        def spy(*args, **kwargs):
            vals, vecs = eigh(*args, **kwargs)
            calls.append((kwargs, vals))
            return vals, vecs

        monkeypatch.setattr(spectral.la, "eigh", spy)
        v, _ = fiedler_vector(L)
        monkeypatch.undo()

        (kwargs, vals), = calls
        assert kwargs == {"subset_by_index": [0, 2]}
        want = ref_vals[:3]
        assert np.all(np.abs(vals - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))
        # The glued chains' eight branch entries tie in magnitude up to
        # rounding, so which one the sign convention keys on is set by the
        # last bits of each solve: compare up to sign, then check the
        # convention on v itself.
        if v @ ref < 0:
            ref = -ref
        assert np.abs(v - ref).max() <= 1e-10
        assert v[np.argmax(np.abs(v))] > 0
