import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hpmetric import hitting, stationary
from hpmetric.errors import NumericalError, SimulationDivergenceError
from hpmetric.generators import gen_random_strongly_connected
from hpmetric.graphs import largest_scc, make_digraph, row_normalize
from hpmetric.hitting import (hitting_by_reduction, hitting_fast, hitting_reference,
                              simulate_hit_before_return, simulate_visit_counts)
from hpmetric.metric import degenerate_pairs
from hpmetric.stationary import FACTOR_KEY, stationary_distribution

from conftest import directed_cycle, named_chain, random_chain, two_k3_bridge
from oracles import (exact_hitting_matrix, oracle_hitting_inverse, oracle_hitting_matrix,
                     oracle_hitting_probability)


def stack_reference(tm):
    return np.column_stack([hitting_reference(tm, j) for j in range(tm.n)])


class TestReference:
    def test_directed_4_cycle_all_ones(self):
        tm = directed_cycle(4)
        for j in range(4):
            col = hitting_reference(tm, j)
            assert col[j] == 0.0
            mask = np.arange(4) != j
            assert np.allclose(col[mask], 1.0, atol=1e-12)

    def test_k3_three_quarters(self, k3):
        # First-step analysis: 1/2 + 1/2 * 1/2 = 3/4; frozen via the
        # absorbing-state oracle.
        assert oracle_hitting_probability(k3.P, 0, 1) == pytest.approx(0.75, abs=1e-12)
        for j in range(3):
            col = hitting_reference(k3, j)
            mask = np.arange(3) != j
            assert np.allclose(col[mask], 0.75, atol=1e-12)

    def test_glued_cycles_table_values(self, glued_342):
        Q = stack_reference(glued_342)
        # indices: backbone 0..2, branch one 3..6, branch two 7..10
        assert Q[3, 4] == pytest.approx(1.0, abs=1e-12)   # same branch
        assert Q[3, 7] == pytest.approx(0.5, abs=1e-12)   # other branch
        assert Q[0, 3] == pytest.approx(0.5, abs=1e-12)   # backbone -> branch, 1/C
        assert Q[3, 0] == pytest.approx(1.0, abs=1e-12)   # branch -> backbone
        assert Q[0, 1] == pytest.approx(1.0, abs=1e-12)   # backbone pair

    def test_matches_absorbing_oracle(self):
        for seed in (0, 1, 2):
            tm = random_chain(9, seed=seed)
            Q = stack_reference(tm)
            assert np.abs(Q - oracle_hitting_matrix(tm.P)).max() <= 1e-10

    def test_self_loops_supported(self):
        tm = row_normalize(make_digraph([[0.5, 0.5, 0], [0.2, 0.3, 0.5], [0.4, 0, 0.6]]))
        Q = stack_reference(tm)
        assert np.abs(Q - oracle_hitting_matrix(tm.P)).max() <= 1e-10


class TestFast:
    @pytest.mark.parametrize("n,seed", [(5, 0), (17, 1), (33, 2), (60, 3)])
    def test_agrees_with_reference(self, n, seed):
        tm = random_chain(n, seed=seed)
        fast = hitting_fast(tm)
        assert not fast.used_reference
        assert np.abs(fast.Q - stack_reference(tm)).max() <= 1e-8

    @pytest.mark.parametrize("n", [7, 2000])
    def test_directed_cycle(self, n):
        tm = directed_cycle(n)
        result = hitting_fast(tm)
        assert not result.used_reference
        Q = result.Q
        off = ~np.eye(n, dtype=bool)
        assert (Q[off] == 1.0).all()
        assert (np.diag(Q) == 0.0).all()
        assert len(degenerate_pairs(result, stationary_distribution(tm)).classes) == 1

    @pytest.mark.parametrize("eps", [1e-13, 1e-14])
    def test_fallback_certified(self, eps):
        # A directed triangle bridged to a K3: the reduction takes over, and
        # its pair (1, 2), which the triangle passes in series, reads exactly 1.
        W = np.zeros((6, 6))
        W[0, 1] = W[1, 2] = W[2, 0] = 1.0
        W[3:, 3:] = 1.0 - np.eye(3)
        W[0, 3] = W[3, 0] = eps
        tm = row_normalize(make_digraph(W))
        result = hitting_fast(tm)
        assert result.used_reference
        assert result.Q[1, 2] == result.Q[2, 1] == 1.0
        assert result.Q[0, 1] < 1.0
        classes = degenerate_pairs(result, stationary_distribution(tm)).classes
        assert classes == [[0], [1, 2], [3], [4], [5]]

    def test_detailed_balance_n50(self):
        tm = random_chain(50, seed=9)
        Q = hitting_fast(tm).Q
        phi = stationary_distribution(tm).phi
        assert np.abs(Q * phi[:, None] - Q.T * phi[None, :]).max() <= 1e-10

    def test_positivity_and_range(self):
        tm = random_chain(40, seed=12)
        Q = hitting_fast(tm).Q
        off = ~np.eye(40, dtype=bool)
        assert Q[off].min() > 0.0
        assert Q[off].max() <= 1.0 + 1e-12

    def test_submultiplicativity(self):
        from hpmetric.verify import submultiplicativity_slack

        tm = random_chain(25, seed=21)
        assert submultiplicativity_slack(hitting_fast(tm).Q) <= 1e-10

    def test_deterministic(self):
        # Two chains built from one graph solve separately, to the same bits.
        g = gen_random_strongly_connected(30, seed=5)
        a, b = hitting_fast(row_normalize(g)), hitting_fast(row_normalize(g))
        assert a is not b
        assert np.array_equal(a.Q, b.Q)

    def test_single_state(self):
        tm = row_normalize(make_digraph([[2.0]]))
        assert hitting_fast(tm).Q.shape == (1, 1)
        assert hitting_fast(tm).Q[0, 0] == 0.0

    def test_condition_fallback_on_near_decoupled_chain(self):
        # Two cliques joined by nearly-zero mass: cond(I - P + 11^T/n) ~ 1/eps
        # forces the state-reduction path.
        tm = two_k3_bridge(1e-14)
        result = hitting_fast(tm)
        assert result.used_reference
        assert np.array_equal(result.Q, hitting_by_reduction(tm))

    @pytest.mark.parametrize("seed", range(20))
    def test_near_decomposable_blocks_against_exact_oracle(self, seed):
        # Unlike two_k3_bridge's uniform weights, random block weights make
        # n inverses of the per-column matrices lose up to 6e-3 here.
        tm = two_random_blocks(seed)
        result = hitting_fast(tm)
        assert result.used_reference
        assert relative_error(result.Q, exact_hitting_matrix(tm.P)) <= 1e-14

    def test_fallback_inverts_once(self, monkeypatch):
        factored, inverted = count_chain_solves(monkeypatch), []
        getri = hitting.getri

        def counting(lu, *args, **kwargs):
            inverted.append(lu.shape[0])
            return getri(lu, *args, **kwargs)

        monkeypatch.setattr(hitting, "getri", counting)
        assert hitting_fast(two_random_blocks(13)).used_reference
        assert factored == inverted == [8]

    def test_ill_conditioning_warning_takes_reduction(self):
        # scipy warns on this inverse (rcond below eps); under the suite's
        # error::RuntimeWarning the warning used to escape as an exception.
        tm = two_random_blocks(0, m=100)
        result = hitting_fast(tm)
        assert result.used_reference
        assert np.array_equal(result.Q, hitting_by_reduction(tm))

    def test_singular_inverse_takes_reduction(self, monkeypatch):
        tm = random_chain(10, seed=4)

        monkeypatch.setattr(stationary, "getrf", singular_lu)
        result = hitting_fast(tm)
        assert result.used_reference
        assert not result.Q.flags.writeable
        assert np.array_equal(result.Q, hitting_by_reduction(tm))

    @pytest.mark.parametrize("eps,reference,rtol", [(1e-4, False, 1e-10),
                                                    (1e-12, True, 1e-14)])
    def test_bridge_chain_against_exact_oracle(self, eps, reference, rtol):
        tm = two_k3_bridge(eps)
        result = hitting_fast(tm)
        assert result.used_reference == reference
        exact = exact_hitting_matrix(tm.P)
        off = ~np.eye(6, dtype=bool)
        assert (np.abs(result.Q - exact)[off] / exact[off]).max() <= rtol


def two_random_blocks(seed, eps=1e-13, m=4):
    """Two random m-state blocks, zero diagonal, joined by an edge of weight
    eps in each direction between states 0 and m."""
    rng = np.random.default_rng(seed)
    W = np.zeros((2 * m, 2 * m))
    W[:m, :m] = rng.random((m, m))
    W[m:, m:] = rng.random((m, m))
    np.fill_diagonal(W, 0.0)
    W[0, m] = W[m, 0] = eps
    return row_normalize(make_digraph(W))


def relative_error(Q, exact):
    off = ~np.eye(exact.shape[0], dtype=bool)
    return float((np.abs(Q - exact)[off] / exact[off]).max())


REDUCTION_CHAINS = ([f"acceptance-{t}" for t in range(50)]
                    + ["glued-3-4-2", "glued-5-40-3"]
                    + [f"cycle-{n}" for n in (1, 2, 3, 7)]
                    + [f"random-{n}" for n in (3, 5, 9, 17, 33, 65)])


class TestReduction:
    @pytest.mark.parametrize("name", REDUCTION_CHAINS)
    def test_matches_stacked_reference(self, name, acceptance_suite):
        tm = named_chain(name, acceptance_suite)
        Q = hitting_by_reduction(tm)
        assert Q.shape == (tm.n, tm.n)
        assert np.all(np.diag(Q) == 0.0)
        assert np.abs(Q - stack_reference(tm)).max() <= 1e-12

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8, 1e-10, 1e-11, 1e-12, 1e-14])
    def test_bridge_chain_against_exact_oracle(self, eps):
        # No cancellation: every censored transition is a sum of nonnegative
        # terms, and each eliminated block's diagonal is the mass leaving it.
        tm = two_k3_bridge(eps)
        assert relative_error(hitting_by_reduction(tm), exact_hitting_matrix(tm.P)) <= 1e-14

    def test_self_loops_against_exact_oracle(self):
        # The reduction drops self-loops: they only delay the walk.
        rng = np.random.default_rng(0)
        W = rng.random((8, 8)) * (rng.random((8, 8)) < 0.5)
        W[np.arange(8), (np.arange(8) + 1) % 8] += 1.0
        np.fill_diagonal(W, 5.0 * rng.random(8))
        tm = row_normalize(make_digraph(W))
        assert relative_error(hitting_by_reduction(tm), exact_hitting_matrix(tm.P)) <= 1e-14

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    @given(n=st.integers(3, 8), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_weight_spreads_against_exact_oracle(self, n, seed):
        # Weights spread over 12 decades, with a cycle for connectivity.  The
        # LU inside each eliminated block subtracts, so neither path is
        # exact; the reduction must stay within 10x of the per-column loop,
        # whose error is taken as the larger of the one observed and its
        # first-order bound u * cond_1 over the loop's column matrices.
        rng = np.random.default_rng(seed)
        W = rng.random((n, n)) * (rng.random((n, n)) < 0.6) * 10.0 ** rng.uniform(-12, 0, (n, n))
        np.fill_diagonal(W, 0.0)
        W[np.arange(n), (np.arange(n) + 1) % n] += 10.0 ** rng.uniform(-12, 0, n)
        tm = row_normalize(make_digraph(W))
        exact = exact_hitting_matrix(tm.P)
        cond = 0.0
        for j in range(n):
            M = np.eye(n) - tm.P
            M[j] = np.eye(n)[j]
            cond = max(cond, np.linalg.cond(M, 1))
        loop = max(relative_error(stack_reference(tm), exact), np.finfo(float).eps / 2 * cond)
        assert relative_error(hitting_by_reduction(tm), exact) <= 10.0 * loop


class TestCertifiedOnes:
    @given(n=st.integers(2, 7), weights=st.lists(st.integers(-6, 3), min_size=49, max_size=49),
           self_loops=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_against_exact_oracle(self, n, weights, self_loops):
        # Integer weights 1-3 on about 30 % of the pairs.  The oracle takes P's
        # float values, whose rows can sum to 1 - 1 ulp (three thirds), so a
        # true Q = 1 reads down to 1 - 2.2e-15 there.
        W = np.maximum(np.reshape(weights[: n * n], (n, n)), 0).astype(float)
        if not self_loops:
            np.fill_diagonal(W, 0.0)
        g, _ = largest_scc(make_digraph(W))
        assume(g.n >= 2)
        tm = row_normalize(g)
        Q = hitting_fast(tm).Q
        one = np.abs(exact_hitting_matrix(tm.P) - 1.0) <= 1e-12
        off = ~np.eye(tm.n, dtype=bool)
        degenerate = one & one.T & off
        assert np.array_equal((Q == 1.0) & (Q.T == 1.0) & off, degenerate)
        assert not ((Q == 1.0) & ~one).any()
        # Every column holding a degenerate pair is certified whole.
        cols = degenerate.any(axis=0)
        assert np.array_equal((Q == 1.0)[:, cols], (one & off)[:, cols])


def singular(M, *args, **kwargs):
    raise la.LinAlgError("singular matrix")


def singular_lu(a, overwrite_a=False):
    """getrf reporting an exactly singular matrix: U[0, 0] = 0."""
    return a, np.arange(1, a.shape[0] + 1, dtype=np.int32), 1


def count_chain_solves(monkeypatch):
    """Record the size of every LU of I - P + 11^T/n, the one factorization
    that phi and Q of a chain P share."""
    sizes = []
    getrf = stationary.getrf

    def spy(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return getrf(a, *args, **kwargs)

    monkeypatch.setattr(stationary, "getrf", spy)
    return sizes


def test_inverse_in_place_matches_out_of_place(acceptance_suite):
    for tm in acceptance_suite:
        result = hitting_fast(tm)
        assert not result.used_reference
        assert relative_error(result.Q, oracle_hitting_inverse(tm.P)) <= 1e-14


def test_q_after_phi_needs_no_n_by_n_scratch():
    # The LU is inverted where it lies and the commute times are summed a
    # tile at a time, so what is left is getri's workspace, O(n) vectors and
    # tiles.
    tm = random_chain(1000, seed=2)
    stationary_distribution(tm)
    tracemalloc.start()
    try:
        hitting_fast(tm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * 8 * tm.n**2


class TestMemo:
    def test_second_call_returns_same_object(self, monkeypatch):
        sizes = count_chain_solves(monkeypatch)
        tm = random_chain(20, seed=3)
        assert hitting_fast(tm) is hitting_fast(tm)
        assert sizes == [20]

    def test_factor_stays_after_phi_until_q_takes_it(self, monkeypatch):
        sizes = count_chain_solves(monkeypatch)
        tm = random_chain(20, seed=3)
        stationary_distribution(tm)
        assert FACTOR_KEY in tm._memo
        hitting_fast(tm)
        assert FACTOR_KEY not in tm._memo
        assert sizes == [20]

    @pytest.mark.parametrize("eps,reference", [(1.0, False), (1e-14, True)])
    def test_result_is_read_only(self, eps, reference):
        result = hitting_fast(two_k3_bridge(eps))
        assert result.used_reference == reference
        with pytest.raises(ValueError):
            result.Q[0, 1] = 0.5

    def test_failed_call_stores_nothing(self, monkeypatch):
        # A singular LU sends the chain to state reduction, whose own
        # singular block still raises.
        tm = random_chain(10, seed=4)

        monkeypatch.setattr(stationary, "getrf", singular_lu)
        monkeypatch.setattr(np.linalg, "inv", singular)
        with pytest.raises(NumericalError):
            hitting_fast(tm)
        monkeypatch.undo()
        assert np.array_equal(hitting_fast(tm).Q, hitting_fast(random_chain(10, seed=4)).Q)

    def test_run_levels_solves_chain_and_quotient_once(self, monkeypatch, glued_342):
        from hpmetric.verify import LEVELS, run_levels

        sizes = count_chain_solves(monkeypatch)
        report = run_levels(glued_342, LEVELS, walks=200)
        assert report["ok"]
        n_quotient = report["levels"]["quotient"]["n_classes"]
        assert n_quotient < glued_342.n
        assert sizes == [glued_342.n, n_quotient]


class TestSimulation:
    def test_two_cycle_deterministic(self, two_cycle):
        q, se = simulate_hit_before_return(two_cycle, 0, 1, walks=100, seed=1)
        assert q == 1.0
        assert se == 0.0

    def test_k3_matches_exact(self, k3):
        q, se = simulate_hit_before_return(k3, 0, 2, walks=20000, seed=7)
        assert abs(q - 0.75) <= 3.0 * se

    def test_glued_backbone_to_branch(self, glued_342):
        q, se = simulate_hit_before_return(glued_342, 0, 3, walks=20000, seed=3)
        assert abs(q - 0.5) <= 3.0 * se

    def test_seed_reproducible(self, k3):
        a = simulate_hit_before_return(k3, 0, 1, walks=500, seed=11)
        b = simulate_hit_before_return(k3, 0, 1, walks=500, seed=11)
        c = simulate_hit_before_return(k3, 0, 1, walks=500, seed=12)
        assert a == b
        assert a != c

    def test_visit_counts_cycle_exactly_one(self):
        tm = directed_cycle(5)
        mean, se = simulate_visit_counts(tm, 0, 3, walks=200, seed=2)
        assert mean == 1.0
        assert se == 0.0

    def test_visit_counts_match_phi_ratio(self):
        tm = row_normalize(make_digraph([[0.5, 0.5], [0.25, 0.75]]))
        mean, se = simulate_visit_counts(tm, 0, 1, walks=20000, seed=5)
        assert abs(mean - 2.0) <= 3.0 * se  # phi = (1/3, 2/3)

    def test_same_state_rejected(self, k3):
        with pytest.raises(ValueError):
            simulate_hit_before_return(k3, 1, 1, walks=10, seed=0)

    def test_no_walks_rejected(self, k3):
        with pytest.raises(ValueError):
            simulate_visit_counts(k3, 0, 1, walks=0, seed=0)

    def test_step_cap(self):
        from hpmetric import hitting

        tm = row_normalize(make_digraph([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
        original = hitting.STEP_CAP
        hitting.STEP_CAP = 1
        try:
            with pytest.raises(SimulationDivergenceError):
                simulate_hit_before_return(tm, 0, 2, walks=1, seed=0)
        finally:
            hitting.STEP_CAP = original


class TestDraw:
    def test_matches_bisect_on_each_rows_cumsum(self):
        from bisect import bisect_right

        from hpmetric.hitting import _sampler

        # Rows 0 and 1 have a zero between two positive entries.
        tm = row_normalize(make_digraph([[1, 0, 3], [1, 0, 1], [0, 1, 0]]))
        draw = _sampler(tm.P)
        for r in range(tm.n):
            cum = np.cumsum(tm.P[r])
            us = [0.0, *cum[cum < 1.0], np.nextafter(1.0, 0.0)]
            got = draw(np.full(len(us), r), np.array(us))
            want = [bisect_right(cum.tolist(), u) for u in us]
            assert got.tolist() == want
            assert np.all(tm.P[r, got] > 0.0)

    @pytest.mark.parametrize("n, seed", [(40, 1), (120, 2)])
    def test_draws_are_those_of_the_full_row_cumsum(self, n, seed):
        # The sampler built on np.cumsum(P, axis=1) over every full row.  Its
        # table's own values, offset by the row, are probed exactly, so a
        # running sum that differed in one bit would move a draw.
        P = random_chain(n, seed).P
        assert (P == 0.0).any()
        rows, cols = np.nonzero(P)
        last = np.cumsum(np.count_nonzero(P, axis=1)) - 1
        cum = np.minimum(np.cumsum(P, axis=1)[rows, cols], 1.0)
        cum[last] = 1.0
        cum += rows
        u = cum - rows  # exact: s + u gives back each table value
        u = np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 2.0)])
        states = np.tile(rows, 3)
        keep = u < 1.0
        states = np.concatenate([states[keep], np.random.default_rng(seed).integers(0, n, 10**4)])
        u = np.concatenate([u[keep], np.random.default_rng(seed + 1).random(10**4)])
        want = cols[np.minimum(np.searchsorted(cum, states + u, side="right"), last[states])]
        assert np.array_equal(hitting._sampler(P)(states, u), want)

    def test_built_once_per_chain(self):
        tm = random_chain(30, seed=3)
        assert hitting._chain_sampler(tm) is hitting._chain_sampler(tm)
