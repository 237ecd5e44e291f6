import io
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hpmetric import graphs
from hpmetric.errors import InputError, IrreducibilityError, ParseError
from hpmetric.files import write_edge_csv
from hpmetric.generators import gen_random_strongly_connected
from hpmetric.graphs import (TransitionMatrix, largest_scc, load_edge_list, make_digraph,
                             row_normalize, strongly_connected_components)

from oracles import oracle_load_edge_list, oracle_strongly_connected_components


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

    @pytest.mark.parametrize("text,line,message", [
        ("%%MatrixMarket matrix array real general\n2 2\n", 1, "only 'matrix coordinate'"),
        ("%%MatrixMarket matrix coordinate complex general\n", 1, "field type 'complex'"),
        ("%%MatrixMarket matrix coordinate real symmetric\n", 1, "symmetry 'symmetric'"),
        ("%%MatrixMarket matrix coordinate real general\n2 3 0\n", 2, "square, got 2x3"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n% c\n1 3 1.0\n", 4,
         r"index \(1,3\) out of range"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n", 3,
         r"index \(0,1\) out of range"),
        ("%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 1\n2 3 1\n3 1 1\n1 3 1\n",
         2, "declares 2 entries, found 4"),
        ("%%MatrixMarket matrix coordinate real general\n3 3 3\n1 2 1\n2 3 1\n", 2,
         "declares 3 entries, found 2"),
    ], ids=["not-coordinate", "field", "symmetry", "non-square", "column-out-of-range",
            "row-zero", "more-entries-than-declared", "truncated"])
    def test_matrix_market_rejects(self, text, line, message):
        with pytest.raises(ParseError, match=message) as info:
            load_edge_list(text, format="matrix-market")
        assert info.value.line_number == line

    def test_unknown_format(self):
        with pytest.raises(InputError, match="unknown edge list format 'mtx'"):
            load_edge_list("a,b\n", format="mtx")

    def test_non_utf8_reports_its_line(self):
        with pytest.raises(ParseError, match="line 2: not UTF-8") as info:
            load_edge_list(b"a,b\r\n\xffb,a\n")
        assert info.value.line_number == 2

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_line_endings_count_lines(self, ending):
        text = ending.join(["a,b", "# c", "", "b,a", "a;b"])
        for source in (text, text.encode(), io.BytesIO(text.encode()),
                       io.TextIOWrapper(io.BytesIO(text.encode()), "utf-8", newline="")):
            with pytest.raises(ParseError, match="line 5: expected 'src,dst\\[,weight\\]', "
                                                 "got 'a;b'"):
                load_edge_list(source)

    def test_other_separators_stay_inside_a_line(self):
        # str.splitlines would end a line at each of these; a text file does not.
        g = load_edge_list("a\x0bz,b\u2028c,1\nb\u2028c,a\x0bz,1\n")
        assert g.labels == ["a\x0bz", "b\u2028c"]

    def test_open_binary_file_peak_memory(self, tmp_path):
        path = tmp_path / "edges.csv"
        write_edge_csv(path, gen_random_strongly_connected(2000, p=0.01, seed=201))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            with open(path, "rb") as fh:
                g = load_edge_list(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.weights.nnz >= 40_000
        assert peak <= 3 * size


LABELS = ["a", "b", "c", " d ", "né", "x y"]
WEIGHTS = ["1", "2.5", " 0.25 ", "1e-3", "0", "3.0000000000000004", "7"]
BAD_CSV_LINES = ["a", "a,b,1,2", ",b", "a, ,1", "a,b,x", "a,b,inf", "a,b, nan ",
                 "a,b,-1", "a;b;1"]
ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])
# Lines of the array parse, and weights it hands to the line parse.
PLAIN_CSV_LINES = ["a,b", "b,c,2", "c,a,0.5", "a,c,1e-3", "d,a,-0", "a,d,+.5e1", "né,a,1.",
                   "a,b,1e400", "a,b,1e", "a,b,1-2", "#a,b,1", "a,#b,1", "a,b,00.25",
                   "a,b,1_0", "e,a,\u0663", "a,b,1e-400", "a\xa0b,c,1", "c,\td,2", "a,b,"]


def as_source(text, kind):
    data = text.encode()
    return {"str": text, "bytes": data, "binary": io.BytesIO(data),
            "text": io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")}[kind]


def outcome(load, text, kind, format):
    try:
        g = load(as_source(text, kind), format=format)
    except (InputError, ParseError) as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    w = g.weights
    return (g.n, g.labels, w.shape, w.indptr.dtype, w.indptr.tolist(), w.indices.dtype,
            w.indices.tolist(), w.data.dtype, w.data.view(np.int64).tolist())


csv_lines = st.one_of(
    st.just(""), st.just("   "), st.just("# comment, with, commas"),
    st.builds(lambda a, b: f"{a},{b}", st.sampled_from(LABELS), st.sampled_from(LABELS)),
    st.builds(lambda a, b, w: f"{a},{b},{w}", st.sampled_from(LABELS),
              st.sampled_from(LABELS), st.sampled_from(WEIGHTS)))


class TestAgainstParentLoader:
    """The streaming loader against the parse-everything-first oracle: same
    labels and CSR bits, or the same exception, message and line number."""

    @given(lines=st.lists(csv_lines, max_size=25), bad=st.sampled_from([None, *BAD_CSV_LINES]),
           at=st.integers(0, 25), ending=ENDINGS, last=st.booleans(),
           kind=st.sampled_from(["str", "bytes", "binary", "text"]))
    @settings(max_examples=300, deadline=None)
    def test_csv(self, lines, bad, at, ending, last, kind):
        if bad is not None:
            lines.insert(min(at, len(lines)), bad)
        text = ending.join(lines) + (ending if last else "")
        assert (outcome(load_edge_list, text, kind, "csv")
                == outcome(oracle_load_edge_list, text, kind, "csv"))

    @given(lines=st.lists(st.one_of(csv_lines, st.sampled_from(PLAIN_CSV_LINES)), max_size=40),
           bad=st.sampled_from([None, *BAD_CSV_LINES]), at=st.integers(0, 40), ending=ENDINGS,
           last=st.booleans(), kind=st.sampled_from(["str", "bytes", "binary", "text"]),
           chunk=st.sampled_from([1, 5, 16, 64]))
    @settings(max_examples=300, deadline=None)
    def test_csv_in_small_chunks(self, lines, bad, at, ending, last, kind, chunk):
        # Chunk boundaries everywhere: plain chunks parsed as arrays next to
        # chunks parsed line by line.
        if bad is not None:
            lines.insert(min(at, len(lines)), bad)
        text = ending.join(lines) + (ending if last else "")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "_CSV_CHUNK", chunk)
            got = outcome(load_edge_list, text, kind, "csv")
        assert got == outcome(oracle_load_edge_list, text, kind, "csv")

    @given(kind_field=st.sampled_from(["real", "integer", "pattern"]),
           n=st.integers(1, 4),
           entries=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4),
                                      st.sampled_from(["1", "2.5", "0", "4e-1"])), max_size=12),
           fillers=st.lists(st.sampled_from(["", "  ", "% note"]), max_size=4),
           bad=st.sampled_from([None, "1", "1 2 3 4", "x 1 1", "1 1 y", "1 1 inf",
                                "1 1 -2", "9 1 1", "NON-SQUARE", "BAD-SIZE", "SHORT-SIZE",
                                "NO-SIZE"]),
           at=st.integers(0, 12), ending=ENDINGS,
           kind=st.sampled_from(["str", "bytes", "binary", "text"]))
    @settings(max_examples=300, deadline=None)
    def test_matrix_market(self, kind_field, n, entries, fillers, bad, at, ending, kind):
        body = [f"{i} {j}" if kind_field == "pattern" else f"{i} {j} {w}"
                for i, j, w in entries if i <= n and j <= n]
        count = len(body)
        if bad is not None and not bad.isupper():
            body.insert(min(at, len(body)), bad)
            count += 1
        size = {"NON-SQUARE": f"{n} {n + 1} {count}", "BAD-SIZE": f"{n} {n} x",
                "SHORT-SIZE": f"{n} {n}"}.get(bad, f"{n} {n} {count}")
        lines = [f"%%MatrixMarket matrix coordinate {kind_field} general", *fillers]
        if bad != "NO-SIZE":
            lines += [size, *fillers, *body]
        text = ending.join(lines) + ending
        assert (outcome(load_edge_list, text, kind, "matrix-market")
                == outcome(oracle_load_edge_list, text, kind, "matrix-market"))


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

    def test_zero_weight_is_no_edge(self):
        # Only the zero-weight b -> c joins the two 2-cycles into one component.
        g = load_edge_list("a,b,1\nb,a,1\nb,c,0\nc,a,1\nc,d,1\nd,c,1\n")
        assert g.weights.nnz == 5
        sub, _ = largest_scc(g)
        assert sub.labels == ["a", "b"]

    def test_strongly_connected_graph_returned_itself(self):
        g = gen_random_strongly_connected(30, seed=1)
        sub, mapping = largest_scc(g)
        assert sub is g
        assert mapping == {i: i for i in range(30)}

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


def random_support(n, seed):
    """Three groups, dense inside and sparse across, with self-loops and
    about one empty row in ten: usually several components, some trivial."""
    rng = np.random.default_rng(seed)
    group = rng.integers(0, 3, size=n)
    p = np.where(group[:, None] == group, 0.4, 0.03)
    W = np.where(rng.random((n, n)) < p, rng.random((n, n)) + 0.1, 0.0)
    W[rng.random(n) < 0.1] = 0.0
    return W


class TestStrongComponents:
    @pytest.mark.parametrize("n", [1, 2, 5, 40, 150])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_dense_conversion(self, n, seed):
        # Same lists in the same order, for dense float, dense bool and CSR.
        W = random_support(n, seed)
        for support in (W, W > 0, sp.csr_matrix(W)):
            comps = oracle_strongly_connected_components(support)
            assert strongly_connected_components(support) == comps
        assert n < 40 or len(comps) > 1  # the larger cases have several components

    def test_chain_check_peak_on_a_full_support(self):
        # The CSR is read off P's nonzeros: a bool mask, the flat positions
        # and the int32 indices, then the values: 1.63 n x n measured.
        n = 1000
        P = np.full((n, n), 1.0 / n)
        tracemalloc.start()
        try:
            TransitionMatrix(n=n, P=P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * 8 * n * n


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
