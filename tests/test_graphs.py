import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpmetric.errors import InputError, IrreducibilityError, ParseError
from hpmetric.generators import gen_random_strongly_connected
from hpmetric.graphs import (largest_scc, load_edge_list, make_digraph,
                             row_normalize, strongly_connected_components)


class TestLoadEdgeList:
    def test_csv_two_nodes(self):
        g = load_edge_list(b"a,b,1\nb,a,1")
        assert g.n == 2
        assert g.labels == ["a", "b"]
        assert np.array_equal(g.weights.todense(), [[0, 1], [1, 0]])

    def test_duplicate_rows_sum(self):
        g = load_edge_list("a,b,1\na,b,2")
        assert g.weights[0, 1] == 3.0

    def test_default_weight_and_comments(self):
        g = load_edge_list("# comment\na,b\nb,a,2.5\n")
        assert g.weights[0, 1] == 1.0
        assert g.weights[1, 0] == 2.5

    def test_first_appearance_order(self):
        g = load_edge_list("z,y,1\nx,z,1\ny,x,1")
        assert g.labels == ["z", "y", "x"]

    def test_matrix_market_3_cycle(self):
        text = "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 2 1.0\n2 3 1.0\n3 1 1.0\n"
        g = load_edge_list(io.BytesIO(text.encode()), format="matrix-market")
        assert np.array_equal(g.weights.todense(), [[0, 1, 0], [0, 0, 1], [1, 0, 0]])

    def test_matrix_market_pattern(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n"
        g = load_edge_list(text, format="matrix-market")
        assert g.weights[0, 1] == 1.0

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            load_edge_list("a,b,1\nnot a line\n")

    def test_negative_weight(self):
        with pytest.raises(InputError, match="negative"):
            load_edge_list("a,b,-1")

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.floats(0.01, 100.0)), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_csv_weights_accumulate(self, edges):
        text = "\n".join(f"n{a},n{b},{w!r}" for a, b, w in edges)
        g = load_edge_list(text)
        totals = {}
        for a, b, w in edges:
            totals[(f"n{a}", f"n{b}")] = totals.get((f"n{a}", f"n{b}"), 0.0) + w
        idx = {lab: i for i, lab in enumerate(g.labels)}
        for (a, b), w in totals.items():
            assert g.weights[idx[a], idx[b]] == pytest.approx(w)


class TestLargestScc:
    def test_cycle_is_fixed_point(self):
        g = load_edge_list("a,b\nb,c\nc,a")
        sub, mapping = largest_scc(g)
        assert sub.n == 3
        assert mapping == {0: 0, 1: 1, 2: 2}

    def test_dangling_sink_dropped(self):
        g = load_edge_list("a,b\nb,c\nc,a\nc,d")
        sub, mapping = largest_scc(g)
        assert sub.labels == ["a", "b", "c"]
        assert 3 not in mapping

    def test_tie_broken_by_min_index(self):
        g = load_edge_list("a,b\nb,a\nc,d\nd,c")
        sub, _ = largest_scc(g)
        assert sub.labels == ["a", "b"]

    def test_idempotent(self):
        g = load_edge_list("a,b\nb,a\nb,c\nc,d\nd,c")
        once, _ = largest_scc(g)
        twice, _ = largest_scc(once)
        assert once.labels == twice.labels
        assert (once.weights != twice.weights).nnz == 0

    def test_tarjan_matches_reachability(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            A = (rng.random((n, n)) < 0.25).astype(float)
            comps = strongly_connected_components(A)
            assert sorted(x for c in comps for x in c) == list(range(n))
            # mutual reachability within each component
            reach = np.linalg.matrix_power(A + np.eye(n), n) > 0
            for c in comps:
                for i in c:
                    for j in c:
                        assert reach[i, j] and reach[j, i]


class TestRowNormalize:
    def test_single_nonzero_rows(self):
        tm = row_normalize(make_digraph([[0, 2], [3, 0]]))
        assert np.array_equal(tm.P, [[0, 1], [1, 0]])

    def test_equal_weights(self):
        tm = row_normalize(make_digraph([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
        off = ~np.eye(3, dtype=bool)
        assert np.allclose(tm.P[off], 0.5)

    def test_reducible_rejected(self):
        with pytest.raises(IrreducibilityError):
            row_normalize(make_digraph([[0, 1], [0, 0]]))

    def test_zero_row_names_node(self):
        # a single node without a self-loop is its own trivial SCC, so the
        # zero-row check is what rejects it
        with pytest.raises(InputError, match="'lonely'"):
            row_normalize(make_digraph([[0.0]], labels=["lonely"]))

    def test_dead_end_reported_as_reducible(self):
        with pytest.raises(IrreducibilityError):
            row_normalize(make_digraph([[0, 1, 1], [0, 0, 0], [1, 0, 0]],
                                       labels=["a", "b", "c"]))

    def test_row_sums_within_tolerance(self):
        rng = np.random.default_rng(11)
        W = rng.random((40, 40)) + 0.01
        tm = row_normalize(make_digraph(W))
        assert np.abs(tm.P.sum(axis=1) - 1.0).max() <= 1e-12

    def test_support_preserved(self):
        rng = np.random.default_rng(3)
        W = np.where(rng.random((15, 15)) < 0.4, rng.random((15, 15)) + 0.1, 0.0)
        np.fill_diagonal(W, 0.1)  # self loops keep every row nonzero
        g, _ = largest_scc(make_digraph(W))
        tm = row_normalize(g)
        assert np.array_equal(tm.P > 0, np.asarray(g.weights.todense()) > 0)

    def test_divides_in_place_with_identical_bits(self):
        n = 1000
        g = gen_random_strongly_connected(n, p=20.0 / n, seed=3)
        w = g.weights.toarray()
        want = w / w.sum(axis=1)[:, None]
        tracemalloc.start()
        try:
            tm = row_normalize(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(tm.P.view(np.int64), want.view(np.int64))
        assert peak <= 1.25 * 8 * n * n  # P itself is 1.0 of it

    def test_dense_limit(self):
        import scipy.sparse as sp

        from hpmetric.graphs import WeightedDigraph

        n = 13000
        w = sp.identity(n, format="csr")
        g = WeightedDigraph(n=n, labels=[str(i) for i in range(n)], weights=w)
        with pytest.raises(InputError, match="dense limit"):
            row_normalize(g)
