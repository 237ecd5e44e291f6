import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as la
from scipy.sparse.linalg import ArpackNoConvergence

from hpmetric import spectral, stationary
from hpmetric.errors import InputError
from hpmetric.generators import (GeometricGraphSpec, GluedCyclesSpec,
                                 PlantedPartitionSpec, gen_er_cycle, gen_geometric,
                                 gen_glued_cycles, gen_planted_partition,
                                 gen_random_strongly_connected)
from hpmetric.graphs import make_digraph, row_normalize
from hpmetric.hitting import hitting_fast
from hpmetric.metric import hp_similarity
from hpmetric.spectral import (fiedler_vector, laplacian, operator_laplacian,
                               symmetrize)
from hpmetric.stationary import stationary_distribution

from conftest import random_chain
from oracles import oracle_chung_laplacian


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

    @pytest.mark.parametrize("tm", [random_chain(12, seed=9), random_chain(300, seed=4),
                                    row_normalize(gen_glued_cycles(GluedCyclesSpec(3, 4, 2)))],
                             ids=["random-12", "random-300", "glued-3-4-2"])
    def test_chung_matches_oracle_bit_for_bit(self, tm):
        phi = stationary_distribution(tm)
        L = symmetrize(tm, phi, "chung").M
        assert np.array_equal(L, oracle_chung_laplacian(tm.P, phi.phi))

    def test_chung_in_two_buffers(self):
        n = 400
        tm = random_chain(n, seed=6)
        phi = stationary_distribution(tm)
        tracemalloc.start()
        try:
            symmetrize(tm, phi, "chung")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * 8 * n * n

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
        factored = []
        getrf = stationary.getrf

        def spy(a, *args, **kwargs):
            factored.append(a)
            return getrf(a, *args, **kwargs)

        monkeypatch.setattr(stationary, "getrf", spy)
        M = symmetrize(glued_342, phi, "hp", 0.5).M
        assert factored == []
        assert np.array_equal(M, A)

    def test_hp_requires_beta(self, glued_342):
        phi = stationary_distribution(glued_342)
        with pytest.raises(InputError):
            symmetrize(glued_342, phi, "hp")

    def test_hp_without_beta_solves_no_phi(self, glued_342):
        with pytest.raises(InputError, match="requires a beta"):
            symmetrize(glued_342, None, "hp")
        assert glued_342._memo == {}

    @pytest.mark.parametrize("kind", ["additive", "max"])
    def test_kinds_that_read_no_phi_solve_none(self, kind, monkeypatch, glued_342):
        want = symmetrize(glued_342, stationary_distribution(glued_342), kind).M

        def fail(tm):
            raise AssertionError("stationary_distribution called")

        monkeypatch.setattr(spectral, "stationary_distribution", fail)
        assert np.array_equal(symmetrize(glued_342, None, kind).M, want)

    @pytest.mark.parametrize("kind", ["chung", "hp"])
    def test_kinds_that_read_phi_solve_it_when_none(self, kind, glued_342):
        got = symmetrize(glued_342, None, kind, beta=0.5).M
        want = symmetrize(glued_342, stationary_distribution(glued_342), kind, beta=0.5).M
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # A NaN fails the symmetry and sign checks; a symmetric inf passes them.
        M = random_adjacency(20, 3)
        M[2, 7] = M[7, 2] = bad
        with pytest.raises(InputError, match="finite"):
            laplacian(M)

    @pytest.mark.parametrize("i, j", [(290, 5), (5, 290), (200, 150)])
    def test_asymmetry_found_in_any_tile(self, i, j):
        # The symmetry check walks tiles of 128 and their mirrors.
        M = random_adjacency(300, 5)
        M[i, j] += 1e-9
        with pytest.raises(InputError, match="symmetric"):
            laplacian(M)


class TestFiedler:
    def test_path3_pattern(self):
        L = laplacian(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))
        v, signs = fiedler_vector(L)
        # v = (1, 0, -1) / sqrt(2): the ends tie in magnitude, so the lowest
        # index leads.
        assert list(signs) == [1, 0, -1]
        assert v[0] > 0

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


def glued_hp_laplacian(beta, spec=GluedCyclesSpec(3, 4, 2)):
    tm = row_normalize(gen_glued_cycles(spec))
    return operator_laplacian(symmetrize(tm, stationary_distribution(tm), "hp", beta))


def hp_laplacian(n, seed):
    """The hp Laplacian at beta = 1/2 of a random digraph with p = 20/n."""
    tm = row_normalize(gen_random_strongly_connected(n, p=min(1.0, 20.0 / n), seed=seed))
    return operator_laplacian(symmetrize(tm, stationary_distribution(tm), "hp", 0.5))


def chung_laplacian(n, seed):
    tm = random_chain(n, seed=seed)
    return symmetrize(tm, stationary_distribution(tm), "chung").M


def chain_laplacian(g, kind):
    tm = row_normalize(g)
    return operator_laplacian(symmetrize(tm, stationary_distribution(tm), kind, 0.5))


def bridged_blocks_hp_laplacian(n=1002, blocks=3, eps=1e-9):
    """The hp Laplacian at beta = 1/2 of random digraphs with p = 20/size,
    in a row of blocks joined both ways by edges of weight eps."""
    h = n // blocks
    W = np.zeros((n, n))
    for b in range(blocks):
        part = slice(b * h, (b + 1) * h)
        W[part, part] = gen_random_strongly_connected(h, p=20.0 / h, seed=b).weights.toarray()
    for b in range(blocks - 1):
        W[b * h, (b + 1) * h] = W[(b + 1) * h, b * h] = eps
    return chain_laplacian(make_digraph(W), "hp")


# Every entry nonzero, from LANCZOS_MIN_N on: plain Lanczos on L.
FULL_SUPPORT_CASES = {
    "planted-hp": lambda: chain_laplacian(
        gen_planted_partition(PlantedPartitionSpec(2001, 3, 0.3, 0.001), seed=0)[0], "hp"),
    "circle-chung": lambda: chain_laplacian(
        gen_geometric(GeometricGraphSpec("circle", spectral.LANCZOS_MIN_N), seed=0)[0], "chung"),
}

# Zeros off the diagonal, from LANCZOS_MIN_N on: shift-invert Lanczos.
SPARSE_SUPPORT_CASES = {
    "chung": lambda: chung_laplacian(spectral.LANCZOS_MIN_N, 5),
    "er-cycle-additive": lambda: chain_laplacian(
        gen_er_cycle(spectral.LANCZOS_MIN_N - 100, 100, 0.05, 3.0, seed=0), "additive"),
}


SUBSET_CASES = {
    "glued-hp-0.5": lambda: glued_hp_laplacian(0.5),
    "glued-hp-1": lambda: glued_hp_laplacian(1.0),
    "random-15": lambda: laplacian(random_adjacency(15, 1)),
    "random-60": lambda: laplacian(random_adjacency(60, 3)),
    "chung-300": lambda: chung_laplacian(300, 11),
    # On either side of the switch to shift-invert Lanczos.
    "random-below-lanczos": lambda: laplacian(random_adjacency(spectral.LANCZOS_MIN_N - 1, 4)),
    "random-at-lanczos": lambda: laplacian(random_adjacency(spectral.LANCZOS_MIN_N, 4)),
    "hp-random-lanczos": lambda: hp_laplacian(spectral.LANCZOS_MIN_N + 200, 11),
    "chung-2001": lambda: chung_laplacian(2001, 5),
}


def spied_solve(L):
    """fiedler_vector(L), and the name, keyword arguments and eigenvalues of
    each eigensolver call it made."""
    calls = []

    def spy(name, solve):
        def call(*args, **kwargs):
            vals, vecs = solve(*args, **kwargs)
            calls.append((name, kwargs, vals))
            return vals, vecs
        return call

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral.la, "eigh", spy("eigh", la.eigh))
        mp.setattr(spectral, "eigsh", spy("eigsh", spectral.eigsh))
        v, _ = fiedler_vector(L)
    return v, calls


def eigsh_modes(calls):
    return [(name, kwargs.get("which")) for name, kwargs, _ in calls]


def plain_lanczos_solve(L):
    """fiedler_vector(L), checked to take one plain Lanczos run and no LU."""
    def no_lu(*args, **kwargs):
        raise AssertionError("lu_factor called")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral.la, "lu_factor", no_lu)
        v, calls = spied_solve(L)
    assert eigsh_modes(calls) == [("eigsh", "SA")]
    return v


def dense_solve(L):
    """fiedler_vector with the dense three-eigenpair solve at every size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "LANCZOS_MIN_N", np.inf)
        return fiedler_vector(L)


def full_solve(L):
    """fiedler_vector with the full eigendecomposition in place of the
    three-eigenpair solve, at every size."""
    eigh = la.eigh
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "LANCZOS_MIN_N", np.inf)
        mp.setattr(spectral.la, "eigh", lambda A, **kwargs: eigh(A))
        return fiedler_vector(L)


def off_subspace(v, V):
    """Distance of the unit vector v from the span of V's orthonormal columns."""
    return la.norm(v - V @ (V.T @ v))


class TestFiedlerSubset:
    @pytest.mark.parametrize("case", list(SUBSET_CASES))
    def test_matches_full_eigendecomposition(self, case):
        L = SUBSET_CASES[case]()
        ref_vals = la.eigh(L, eigvals_only=True)
        ref, _ = full_solve(L)

        v, calls = spied_solve(L)
        (solver, kwargs, vals), = calls
        if L.shape[0] < spectral.LANCZOS_MIN_N:
            assert (solver, kwargs) == ("eigh", {"subset_by_index": [0, 2]})
        else:
            mode = "SA" if np.all(L != 0) else "LM"
            assert (solver, kwargs["k"], kwargs["which"]) == ("eigsh", 3, mode)
        vals = np.sort(vals)
        want = ref_vals[:3]
        assert np.all(np.abs(vals - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))
        assert np.abs(v - ref).max() <= 1e-10
        assert la.norm(L @ v - want[1] * v) <= 1e-8 * la.norm(L)

    @pytest.mark.parametrize("solve", [fiedler_vector, full_solve], ids=["subset", "full"])
    def test_tied_magnitudes_lowest_index_leads(self, solve):
        # The eight branch entries tie in magnitude to rounding; the first
        # branch node (index 3) must come out positive on either solve.
        _, signs = solve(glued_hp_laplacian(0.5))
        assert "".join("-0+"[s + 1] for s in signs) == "000++++----"

    def test_multiple_eigenvalue_on_complete_graph(self):
        # The uniform walk on K_n, additively symmetrized: its Laplacian has
        # eigenvalues 0 and n / (n - 1), the latter n - 1 times, so any unit
        # vector orthogonal to 1 is a Fiedler vector.
        n = spectral.LANCZOS_MIN_N
        tm = row_normalize(make_digraph(np.ones((n, n)) - np.eye(n)))
        L = operator_laplacian(symmetrize(tm, stationary_distribution(tm), "additive"))
        with pytest.warns(RuntimeWarning, match="nearly coincide"):
            v, calls = spied_solve(L)
        assert [c[0] for c in calls] == ["eigsh"]
        assert abs(v.sum()) <= 1e-10
        assert la.norm(L @ v - n / (n - 1) * v) <= 1e-8 * la.norm(L)
        # The returned eigenvalues are Rayleigh quotients, accurate to rounding
        # in ||L|| (eigsh's own Ritz values are off by about 5e-13 here).
        vals, _ = spectral._lanczos_eigenpairs(L)
        assert np.abs(vals[1:] - n / (n - 1)).max() <= 1e-13

    def test_fiedler_eigenvalue_below_the_shift(self):
        # Two random blocks joined by one edge of weight 1e-9: lambda_2 lies
        # below the shift, next to lambda_1 = 0.  Only the span of the two is
        # determined to rounding, and within it the split between the blocks.
        n = spectral.LANCZOS_MIN_N
        h = n // 2
        M = np.zeros((n, n))
        M[:h, :h] = random_adjacency(h, 6)
        M[h:, h:] = random_adjacency(n - h, 7)
        M[0, h] = M[h, 0] = 1e-9
        L = laplacian(M)
        ref_vals, V = la.eigh(L, subset_by_index=[0, 1])
        assert ref_vals[1] < spectral.SHIFT * np.diag(L).max()

        v, calls = spied_solve(L)
        assert [c[0] for c in calls] == ["eigsh"]
        assert off_subspace(v, V) <= 1e-10
        _, signs = fiedler_vector(L)
        assert set(signs[:h]) == {signs[0]} and set(signs[h:]) == {-signs[0]} != {0}

    def test_near_double_eigenvalue_compares_subspaces(self):
        # Glued (100, 300, 3): the three cycles make lambda_2 = lambda_3 up to
        # rounding, so only their eigenspace is determined.  The computed gap
        # is a few times 1e-12, below n u max|diag L| = 7.3e-11, so it warns.
        L = glued_hp_laplacian(0.5, GluedCyclesSpec(100, 300, 3))
        assert L.shape[0] >= spectral.LANCZOS_MIN_N
        _, V = la.eigh(L, subset_by_index=[1, 2])
        with pytest.warns(RuntimeWarning, match="nearly coincide"):
            v, calls = spied_solve(L)
        assert [c[0] for c in calls] == ["eigsh"]
        assert off_subspace(v, V) <= 1e-10

    @pytest.mark.parametrize("case", list(FULL_SUPPORT_CASES))
    def test_full_support_takes_plain_lanczos(self, case):
        L = FULL_SUPPORT_CASES[case]()
        assert L.shape[0] >= spectral.LANCZOS_MIN_N
        v = plain_lanczos_solve(L)
        want, _ = dense_solve(L)
        assert np.abs(v - want).max() <= 1e-10

    def test_bridged_blocks_compare_subspaces(self):
        # Three blocks joined by 1e-9 edges: lambda_2 and lambda_3 lie near
        # 1e-7, next to lambda_1 = 0, so only the span of the three is
        # determined to rounding, and within it the split between the blocks.
        L = bridged_blocks_hp_laplacian()
        _, V = la.eigh(L, subset_by_index=[0, 2])
        v = plain_lanczos_solve(L)
        assert off_subspace(v, V) <= 1e-10
        blocks = [set(np.sign(part)) for part in np.split(v, 3)]
        assert all(len(b) == 1 for b in blocks) and {1, -1} <= set.union(*blocks)

    @pytest.mark.parametrize("case", list(SPARSE_SUPPORT_CASES))
    def test_sparse_support_takes_shift_invert(self, case):
        L = SPARSE_SUPPORT_CASES[case]()
        assert np.count_nonzero(L) < L.size
        _, calls = spied_solve(L)
        assert eigsh_modes(calls) == [("eigsh", "LM")]

    def test_plain_lanczos_makes_no_n_by_n_scratch(self):
        n = spectral.LANCZOS_MIN_N
        L = hp_laplacian(n, 3)
        tracemalloc.start()
        try:
            fiedler_vector(L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * 8 * n * n

    def test_plain_no_convergence_falls_through_to_shift_invert(self, monkeypatch):
        # A real non-convergence (one restart is too few for this L) against
        # a plain call that fails at once: both give the shift-invert bits.
        L = laplacian(random_adjacency(spectral.LANCZOS_MIN_N, 8))
        eigsh = spectral.eigsh

        def plain_fails(*args, **kwargs):
            if kwargs["which"] == "SA":
                raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))
            return eigsh(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "eigsh", plain_fails)
            want = fiedler_vector(L)
        monkeypatch.setattr(spectral, "PLAIN_MAXITER", 1)
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs["which"])
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(spectral, "eigsh", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, signs = fiedler_vector(L)
        assert calls == ["SA", "LM"]
        assert np.array_equal(v, want[0]) and np.array_equal(signs, want[1])

    @pytest.mark.parametrize("offset", [-1, 0], ids=["dense", "lanczos"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_laplacian_rejected(self, offset, bad):
        L = laplacian(random_adjacency(spectral.LANCZOS_MIN_N + offset, 2))
        L[0, 1] = L[1, 0] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            fiedler_vector(L)

    def test_lanczos_output_repeats_bit_for_bit(self):
        L = hp_laplacian(spectral.LANCZOS_MIN_N, 3)
        v1, s1 = fiedler_vector(L)
        v2, s2 = fiedler_vector(L)
        assert np.array_equal(v1, v2) and np.array_equal(s1, s2)

    def test_no_convergence_falls_back_to_dense_solve(self, monkeypatch):
        L = laplacian(random_adjacency(spectral.LANCZOS_MIN_N, 8))

        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        want = dense_solve(L)
        monkeypatch.setattr(spectral, "eigsh", no_convergence)
        with pytest.warns(RuntimeWarning, match="Lanczos did not converge"):
            v, signs = fiedler_vector(L)
        assert np.array_equal(v, want[0]) and np.array_equal(signs, want[1])
