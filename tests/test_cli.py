import argparse
import io
import json
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from hpmetric import files
from hpmetric.cli import build_parser, main
from hpmetric.errors import ParseError
from hpmetric.files import read_dense_csv, write_column_csv, write_dense_csv, write_edge_csv
from hpmetric.generators import gen_random_strongly_connected
from hpmetric.graphs import load_edge_list, make_digraph, row_normalize
from hpmetric.hitting import hitting_fast
from hpmetric.metric import hp_distance, hp_similarity
from hpmetric.stationary import stationary_distribution

from oracles import (oracle_read_dense_csv, oracle_write_column_csv, oracle_write_dense_csv,
                     oracle_write_edge_csv)


@pytest.fixture
def glued_csv(tmp_path):
    path = tmp_path / "glued.csv"
    assert main(["generate", "--model", "glued", "--nb", "3", "--nc", "4",
                 "--C", "2", "--out", str(path)]) == 0
    return path


SPECIAL = np.array([[0.0, -0.0, np.inf, -np.inf],
                    [np.nan, 5e-324, 1e-300, 1e300],
                    [3.0, 0.1, -2.5e-310, 1.0 / 3.0]])


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def random_bit_patterns():
    M = np.random.default_rng(11).integers(0, 2**64, size=(125, 1000), dtype=np.uint64)
    M = M.view(np.float64)
    M[~np.isfinite(M)] = 0.5
    return M


def powers_of_ten_and_neighbours():
    p = np.array([float(f"1e{k}") for k in range(-307, 309)])
    return np.stack([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf), -p])


def specials_and_extremes():
    tiny, huge = np.finfo(np.float64).tiny, np.finfo(np.float64).max
    row = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310,
                    np.nextafter(tiny, 0.0), tiny, -tiny, huge, -huge,
                    1.0 + 2.0**-17, 0.5, 1e-4, 1e-5, 1e16, 1e17, 2.0**60, 100.0])
    return np.stack([row, row[::-1]])


def scaled_fraction(v: float) -> tuple:
    """(r, den): r / den is the fractional part of |v| * 10**(16 - e) for the
    decade e of v, in exact integer arithmetic."""
    a, b = abs(v).as_integer_ratio()
    e = math.floor(math.log10(abs(v)))
    while True:
        s = 16 - e
        num, den = (a * 10**s, b) if s >= 0 else (a, b * 10**-s)
        q, r = divmod(num, den)
        if q < 10**16:
            e -= 1
        elif q >= 10**17:
            e += 1
        else:
            return r, den


def near_ties(count: int, draw) -> tuple:
    """``count`` values from ``draw(k)`` (k candidates) whose scaled fraction
    lies within 0.0217 of one half, and which of them are exact ties."""
    values, ties = [], []
    while len(values) < count:
        for v in draw(4096).tolist():
            r, den = scaled_fraction(float(v))
            if 10_000 * abs(2 * r - den) <= 434 * den and len(values) < count:
                values.append(v)
                ties.append(2 * r == den)
    return values, np.array(ties)


def any_normal_double(rng):
    def draw(k):
        bits = rng.integers(0, 2, size=k, dtype=np.uint64) << np.uint64(63)
        bits |= rng.integers(1, 2047, size=k, dtype=np.uint64) << np.uint64(52)
        bits |= rng.integers(0, 2**52, size=k, dtype=np.uint64)
        return bits.view(np.float64)
    return draw


def any_normal_float32(rng):
    def draw(k):
        bits = rng.integers(0, 2, size=k, dtype=np.uint32) << np.uint32(31)
        bits |= rng.integers(1, 255, size=k, dtype=np.uint32) << np.uint32(23)
        bits |= rng.integers(0, 2**23, size=k, dtype=np.uint32)
        return bits.view(np.float32)
    return draw


def large_int64(rng):
    return lambda k: rng.integers(10**18, 2**63, size=k, dtype=np.int64)


class TestDenseRoundTrip:
    def test_exact_17_digit_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.random((7, 7)) * np.pi
        path = tmp_path / "m.csv"
        write_dense_csv(path, M, [f"n{i}" for i in range(7)])
        back, labels = read_dense_csv(path)
        assert labels == [f"n{i}" for i in range(7)]
        assert same_bits(M, back)

    def test_extreme_values(self, tmp_path):
        M = np.array([[1e-300, 1.0], [np.e, 1e300]])
        path = tmp_path / "m.csv"
        write_dense_csv(path, M, ["a", "b"])
        back, _ = read_dense_csv(path)
        assert same_bits(M, back)

    def test_special_values_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        write_dense_csv(path, SPECIAL, list("abcd"))
        back, _ = read_dense_csv(path)
        assert same_bits(SPECIAL, back)

    @pytest.mark.parametrize("M, labels", [
        (SPECIAL, list("abcd")),
        (np.array([[0.25]]), ["only"]),
        (np.random.default_rng(3).random((5, 5)) * 1e5, ["α", "β", "γ", "ß", "東"]),
        (np.zeros((0, 2)), ["a", "b"]),
        (random_bit_patterns(), [f"n{i}" for i in range(1000)]),
        (powers_of_ten_and_neighbours(), [f"n{i}" for i in range(616)]),
        (specials_and_extremes(), [f"n{i}" for i in range(21)]),
    ], ids=["special", "1x1", "non-ascii", "no-rows", "random-bits", "powers-of-ten",
            "specials-and-extremes"])
    def test_bytes_and_values_match_oracle(self, tmp_path, M, labels):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_dense_csv(new, M, labels)
        oracle_write_dense_csv(old, M, labels)
        assert new.read_bytes() == old.read_bytes()
        got, got_labels = read_dense_csv(old)
        want, want_labels = oracle_read_dense_csv(old)
        assert got_labels == want_labels == labels
        assert got.dtype == want.dtype and same_bits(got, want)

    def test_comments_blank_lines_and_crlf(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"# made by hand\r\n\r\na,b\r\n1,2\r\n   \n# mid\n3,-0\n")
        got, labels = read_dense_csv(path)
        want, want_labels = oracle_read_dense_csv(path)
        assert labels == want_labels == ["a", "b"]
        assert same_bits(got, want)

    @pytest.mark.parametrize("text, line, message", [
        ("# c\n\na,b\n1,2\n3\n", 5, "expected 2 values"),
        ("a,b\n1,2,\n", 2, "expected 2 values"),
        ("a,b,c\n1,2,\n", 2, "expected 3 values"),
        ("a,b\n1,2\n\n1,x\n", 4, "non-numeric value"),
        ("a,b\n1,2x\n", 2, "non-numeric value"),
        ("a,b\n1,\n", 2, "expected 2 values"),
        ("# only a comment\n\n", 1, "empty matrix file"),
        ("", 1, "empty matrix file"),
    ])
    def test_bad_file_reports_its_line(self, tmp_path, text, line, message):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match=f"^line {line}: {message}") as err:
                read_dense_csv(path)
        assert err.value.line_number == line

    def test_writer_streams_rows(self, tmp_path):
        n = 400
        M = np.random.default_rng(5).random((n, n))
        path = tmp_path / "m.csv"
        tracemalloc.start()
        try:
            write_dense_csv(path, M, [f"n{i}" for i in range(n)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * path.stat().st_size

    def test_reader_holds_no_text(self, tmp_path):
        n = 400
        path = tmp_path / "m.csv"
        write_dense_csv(path, np.random.default_rng(6).random((n, n)),
                        [f"n{i}" for i in range(n)])
        tracemalloc.start()
        try:
            read_dense_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * n * n


class TestDenseWriterFallback:
    def test_cli_session_matrices_match_oracle(self, tmp_path):
        tm = row_normalize(gen_random_strongly_connected(1000, p=0.02, seed=1))
        sim = hp_similarity(hitting_fast(tm), stationary_distribution(tm), 0.5)
        for M in (hp_distance(sim).D, sim.A):
            new, old = tmp_path / "new.csv", tmp_path / "old.csv"
            write_dense_csv(new, M, tm.labels)
            oracle_write_dense_csv(old, M, tm.labels)
            assert new.read_bytes() == old.read_bytes()

    def test_margin_of_one_half_sends_every_value_to_the_fallback(self, tmp_path, monkeypatch):
        M = np.random.default_rng(12).standard_normal((20, 30)) * 10.0 ** np.arange(-9, 21)
        labels = [f"n{i}" for i in range(30)]
        monkeypatch.setattr(files, "_MARGIN", 0.5)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_dense_csv(new, M, labels)
        oracle_write_dense_csv(old, M, labels)
        assert new.read_bytes() == old.read_bytes()
        # Every value now goes through FLOAT_FMT, so a coarser one shows everywhere.
        monkeypatch.setattr(files, "FLOAT_FMT", "%.3g")
        write_dense_csv(new, M, labels)
        assert new.read_text().splitlines()[1:] == [",".join("%.3g" % v for v in r)
                                                    for r in M.tolist()]

    @pytest.mark.parametrize("draw, dtype, shape", [
        (any_normal_double, np.float64, (22, 480)),
        (any_normal_double, np.float64, (1, 1)),
        (any_normal_double, np.float64, (13, 7)),
        (any_normal_float32, np.float32, (5, 9)),
        (large_int64, np.int64, (4, 11)),
    ], ids=["22x480", "1x1", "13x7", "float32", "int64"])
    def test_values_near_a_tie_match_oracle(self, tmp_path, draw, dtype, shape):
        """Values within 0.0217 of a rounding tie, which a long-double
        product could not place, take the fast path unless they are exact
        ties or lie outside its decades, and keep the bytes of ``%.17g``."""
        values, ties = near_ties(math.prod(shape), draw(np.random.default_rng(21)))
        M = np.array(values, dtype=dtype).reshape(shape)
        labels = [f"n{i}" for i in range(shape[1])]
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_dense_csv(new, M, labels)
        oracle_write_dense_csv(old, M, labels)
        assert new.read_bytes() == old.read_bytes()
        x = M.astype(np.float64).ravel()
        in_range = (np.abs(x) >= files._FAST_MIN) & (np.abs(x) < files._FAST_MAX)
        assert files._scaled_digits(x)[2][in_range & ~ties].all()

    @pytest.fixture(scope="class")
    def cli_session_matrices(self):
        tm = row_normalize(gen_random_strongly_connected(1000, p=0.02, seed=1))
        sim = hp_similarity(hitting_fast(tm), stationary_distribution(tm), 0.5)
        return {"D": hp_distance(sim).D, "A": sim.A}

    @pytest.mark.parametrize("name", ["D", "A"])
    def test_fallback_is_rare_on_cli_session_matrices(self, cli_session_matrices, name):
        """Fewer than 1e-4 of the values go through ``FLOAT_FMT %`` (zeros
        included); a formatter that fell back per value would fail here."""
        fast = files._scaled_digits(cli_session_matrices[name].ravel())[2]
        assert np.count_nonzero(~fast) < 1e-4 * fast.size


class TestSmallWriters:
    def test_edge_csv_text(self, tmp_path):
        path = tmp_path / "e.csv"
        write_edge_csv(path, make_digraph([[0.0, 0.1], [2.0, 0.0]], labels=["x", 7]))
        assert path.read_bytes() == b"x,7,0.10000000000000001\n7,x,2\n"

    def test_edgeless_graph_is_one_empty_line(self, tmp_path):
        path = tmp_path / "e.csv"
        write_edge_csv(path, make_digraph([[0.0]], labels=["a"]))
        assert path.read_bytes() == b"\n"

    @pytest.mark.parametrize("chunk", [3, 1 << 12])
    @pytest.mark.parametrize("g", [
        make_digraph([[0.0, 0.1, 5e-324], [2.0, 0.0, 1e300], [1 / 3, 7.0, 0.0]],
                     labels=["α", 7, "東京"]),
        make_digraph([[0.0, 1.0], [0.5, 0.0]], labels=[np.int64(3), "a\x00b"]),
        load_edge_list(b"a,b,0.1\nb,a,1\na,b,0.2\nb,c,1e-310\nc,a\na,b,2.5\n"),
        make_digraph(np.zeros((3, 3)), labels=["x", "y", "z"]),
        gen_random_strongly_connected(300, seed=4),
    ], ids=["non-ascii-and-int-labels", "nul-in-label", "summed-duplicates", "edgeless",
            "random-300"])
    def test_edge_csv_matches_oracle(self, tmp_path, monkeypatch, g, chunk):
        monkeypatch.setattr(files, "_EDGES_PER_CHUNK", chunk)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_edge_csv(new, g)
        oracle_write_edge_csv(old, g)
        assert new.read_bytes() == old.read_bytes()

    def test_edge_writer_streams_chunks(self, tmp_path, monkeypatch):
        g = gen_random_strongly_connected(2000, p=0.01, seed=201)
        monkeypatch.setattr(files, "_EDGES_PER_CHUNK", 256)
        path = tmp_path / "e.csv"
        tracemalloc.start()
        try:
            write_edge_csv(path, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.2 * path.stat().st_size

    def test_column_csv_text(self, tmp_path):
        path = tmp_path / "c.csv"
        write_column_csv(path, ["é", "b"], {"value": np.array([1 / 3, -0.0]),
                                            "sign": ["+", "-"], "k": [np.int64(3), True]})
        assert path.read_text(encoding="utf-8") == (
            "label,value,sign,k\né,0.33333333333333331,+,3\nb,-0,-,1\n")

    def test_column_csv_matches_oracle(self, tmp_path):
        columns = {
            "int": [0, -7, 2**60, 3, 1, 12],
            "bool": [True, False, True, False, True, False],
            "float64": np.array([np.nan, np.inf, -np.inf, -0.0, 0.1, 5e-324]),
            "float": [1 / 3, -0.0, float("nan"), float("-inf"), 1e300, 2.0],
            "str": ["+", "-", "0", "x y", "é", ""],
            "np.int64": [np.int64(-1), np.int64(0), np.int64(2**62), np.int64(5),
                         np.int64(9), np.int64(10)],
        }
        labels = ["a", "β", "c", "d", "e", "f"]
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_column_csv(new, labels, columns)
        oracle_write_column_csv(old, labels, columns)
        assert new.read_bytes() == old.read_bytes()
        assert new.read_text(encoding="utf-8").splitlines()[1:4] == [
            "a,0,1,nan,0.33333333333333331,+,-1",
            "β,-7,0,inf,-0,-,0",
            "c,1.152921504606847e+18,1,-inf,nan,0,4611686018427387904",
        ]


class TestSubcommands:
    def test_stationary(self, glued_csv, tmp_path):
        out = tmp_path / "phi.csv"
        assert main(["stationary", "--in", str(glued_csv), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "label,phi"
        values = {l.split(",")[0]: float(l.split(",")[1]) for l in lines[1:]}
        assert values["b1"] == pytest.approx(1 / 7)
        assert values["c1_1"] == pytest.approx(1 / 14)
        assert (tmp_path / "phi.meta.json").exists()

    def test_stationary_from_stdin(self, glued_csv, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["stationary", "--in", str(glued_csv), "--out", str(a)]) == 0
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(glued_csv.read_bytes())))
        assert main(["stationary", "--in", "-", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_hitprob_matrix_and_meta(self, glued_csv, tmp_path):
        out = tmp_path / "q.csv"
        assert main(["hitprob", "--in", str(glued_csv), "--out", str(out)]) == 0
        Q, labels = read_dense_csv(out)
        i, j = labels.index("b1"), labels.index("c1_1")
        assert Q[i, j] == pytest.approx(0.5, abs=1e-10)
        meta = json.loads((tmp_path / "q.meta.json").read_text())
        assert meta["command"] == "hitprob"
        assert meta["parameters"]["path"] == "fast"

    def test_hitprob_meta_names_fallback_path(self, tmp_path):
        # Two triangles joined by a 1e-14 bridge: hitting_fast falls back to
        # state reduction, and the meta says so.
        src = tmp_path / "bridge.csv"
        src.write_text("a,b\nb,c\nc,a\nb,a\nc,b\na,c\n"
                       "x,y\ny,z\nz,x\ny,x\nz,y\nx,z\na,x,1e-14\nx,a,1e-14\n")
        out = tmp_path / "q.csv"
        assert main(["hitprob", "--in", str(src), "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "q.meta.json").read_text())
        assert meta["parameters"]["path"] == "reference"

    def test_hitprob_reference_matches_fast(self, glued_csv, tmp_path):
        fast = tmp_path / "qf.csv"
        ref = tmp_path / "qr.csv"
        main(["hitprob", "--in", str(glued_csv), "--out", str(fast)])
        main(["hitprob", "--in", str(glued_csv), "--reference", "--out", str(ref)])
        Qf, _ = read_dense_csv(fast)
        Qr, _ = read_dense_csv(ref)
        assert np.abs(Qf - Qr).max() <= 1e-8

    def test_hitprob_mc(self, glued_csv, capsys):
        assert main(["hitprob", "--in", str(glued_csv), "--mc", "b1", "c1_1",
                     "--walks", "2000", "--seed", "3"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert abs(rep["estimate"] - 0.5) <= 4 * rep["standard_error"] + 1e-9
        assert rep["seed"] == 3

    def test_metric_outputs(self, glued_csv, tmp_path):
        dout = tmp_path / "d.csv"
        aout = tmp_path / "a.csv"
        assert main(["metric", "--in", str(glued_csv), "--beta", "0.5",
                     "--out", str(dout), "--similarity", str(aout)]) == 0
        D, labels = read_dense_csv(dout)
        A, _ = read_dense_csv(aout)
        i, j = labels.index("c1_1"), labels.index("c2_1")
        assert D[i, j] == pytest.approx(np.log(2), abs=1e-10)
        assert A[i, j] == pytest.approx(0.5, abs=1e-10)
        meta = json.loads((tmp_path / "d.meta.json").read_text())
        assert meta["parameters"]["is_pseudo"] is True

    def test_quotient_map(self, glued_csv, tmp_path):
        out = tmp_path / "pq.csv"
        mp = tmp_path / "map.csv"
        assert main(["quotient", "--in", str(glued_csv), "--out", str(out),
                     "--map", str(mp)]) == 0
        rows = dict(l.split(",") for l in mp.read_text().splitlines()[1:])
        assert rows["b1"] == rows["b2"] == rows["b3"]
        assert rows["c1_1"] == rows["c1_4"] != rows["c2_1"]
        # quotient edge list feeds back through the pipeline
        out2 = tmp_path / "phi2.csv"
        assert main(["stationary", "--in", str(out), "--out", str(out2)]) == 0

    def test_fiedler_sign_column(self, glued_csv, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["fiedler", "--in", str(glued_csv), "--method", "hp",
                     "--beta", "0.5", "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        signs = {r[0]: r[2] for r in rows}
        assert signs["b1"] == signs["b2"] == signs["b3"] == "0"
        assert {signs["c1_1"], signs["c2_1"]} == {"+", "-"}

    def test_generate_planted_with_truth(self, tmp_path):
        graph = tmp_path / "pp.csv"
        truth = tmp_path / "truth.csv"
        assert main(["generate", "--model", "planted", "--n", "30", "--k", "3",
                     "--p-in", "0.9", "--p-out", "0.4", "--seed", "1",
                     "--out", str(graph), "--truth", str(truth)]) == 0
        lines = truth.read_text().splitlines()
        assert lines[0] == "label,community"
        assert len(lines) == 31

    def test_generate_geometric_coords(self, tmp_path):
        graph = tmp_path / "geo.csv"
        coords = tmp_path / "xy.csv"
        assert main(["generate", "--model", "geometric", "--domain", "circle",
                     "--n", "12", "--seed", "2", "--out", str(graph),
                     "--coords", str(coords)]) == 0
        assert len(coords.read_text().splitlines()) == 13

    def test_cluster_json(self, tmp_path, capsys):
        graph = tmp_path / "pp.csv"
        truth = tmp_path / "truth.csv"
        main(["generate", "--model", "planted", "--n", "30", "--k", "3",
              "--p-in", "0.95", "--p-out", "0.05", "--seed", "4",
              "--out", str(graph), "--truth", str(truth)])
        assert main(["cluster", "--in", str(graph), "--method", "pca-kmeans-d12",
                     "--k", "3", "--seed", "0", "--truth", str(truth),
                     "--trials", "200"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["accuracy"] >= 0.9
        assert rep["p_value"] <= 0.01
        assert len(rep["labels"]) == 30

    def test_embed(self, glued_csv, tmp_path):
        out = tmp_path / "coords.csv"
        assert main(["embed", "--in", str(glued_csv), "--matrix", "d12",
                     "--dims", "2", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 12
        meta = json.loads((tmp_path / "coords.meta.json").read_text())
        assert len(meta["parameters"]["explained_variance"]) == 2


class TestVerifyAndExitCodes:
    def test_verify_glued_passes(self, capsys):
        code = main(["verify", "--model", "glued", "--nb", "3", "--nc", "4",
                     "--C", "2", "--levels", "identity,metric,quotient"])
        rep = json.loads(capsys.readouterr().out)
        assert code == 0
        assert rep["ok"] is True

    @pytest.mark.parametrize("model", ["er-cycle", "random"])
    def test_verify_models(self, model, capsys):
        assert main(["verify", "--model", model, "--levels", "identity"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_verify_oracle_level(self, capsys):
        code = main(["verify", "--model", "glued", "--levels", "oracle",
                     "--walks", "2000", "--seed", "7"])
        assert code == 0

    def test_verify_json_ok_flags_are_booleans(self, capsys):
        main(["verify", "--model", "glued", "--levels", "identity,metric,quotient,oracle",
              "--walks", "200"])
        flags = []

        def collect(node):
            if isinstance(node, dict):
                if "ok" in node:
                    flags.append(node["ok"])
                for v in node.values():
                    collect(v)
            elif isinstance(node, list):
                for v in node:
                    collect(v)

        collect(json.loads(capsys.readouterr().out))
        assert len(flags) > 20
        assert all(type(f) is bool for f in flags)

    def test_verify_oracle_complete_graph(self, capsys):
        code = main(["verify", "--model", "complete", "--n", "3",
                     "--levels", "oracle", "--walks", "5000", "--seed", "7"])
        rep = json.loads(capsys.readouterr().out)
        assert code == 0
        for check in rep["levels"]["oracle"]["hit_probability"]:
            assert check["exact"] == pytest.approx(0.75, abs=1e-12)
            assert check["ok"]

    @pytest.mark.parametrize("argv", [
        ["verify", "--model", "glued", "--beta", "abc"],
        ["verify", "--model", "glued", "--beta", ","],
        ["verify", "--model", "glued", "--levels", "bogus"],
        ["verify", "--model", "glued", "--levels", "identity,bogus"],
        ["verify", "--model", "glued", "--levels", ""],
        ["verify", "--model", "glued", "--levels", "oracle", "--walks", "0"],
        ["hitprob", "--in", "GLUED", "--mc", "b1", "c1_1", "--walks", "0"],
        ["hitprob", "--in", "GLUED", "--mc", "b1", "b1"],
    ], ids=["beta-abc", "beta-comma", "levels-bogus", "levels-partly-bogus", "levels-empty",
            "verify-walks-0", "hitprob-walks-0", "mc-same-label"])
    def test_input_errors_exit_2(self, argv, glued_csv, capsys):
        argv = [str(glued_csv) if a == "GLUED" else a for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["metric", "verify"])
    def test_non_finite_beta_exit_2(self, command, beta, glued_csv, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        argv = {"metric": ["metric", "--in", str(glued_csv), "--beta", beta,
                           "--out", str(out / "d.csv"), "--similarity", str(out / "a.csv")],
                "verify": ["verify", "--in", str(glued_csv), "--levels", "metric",
                           "--beta", beta]}[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: beta must be finite")
        assert list(out.iterdir()) == []

    def test_reducible_input_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,1\n")
        assert main(["verify", "--in", str(bad), "--levels", "identity"]) == 2

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a;b;1\n")
        assert main(["stationary", "--in", str(bad),
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_non_utf8_input_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"a,b,1\nb,\xff,1\n")
        assert main(["stationary", "--in", str(bad),
                     "--out", str(tmp_path / "x.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: line 2: not UTF-8: invalid start byte"]

    def test_scc_flag_recovers(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("a,b,1\nb,a,1\nb,sink,1\n")
        out = tmp_path / "phi.csv"
        assert main(["stationary", "--in", str(path), "--out", str(out)]) == 2
        assert main(["stationary", "--in", str(path), "--scc",
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    def test_threads_flag_identical_output(self, glued_csv, tmp_path):
        a = tmp_path / "qa.csv"
        b = tmp_path / "qb.csv"
        assert main(["--threads", "1", "hitprob", "--in", str(glued_csv),
                     "--out", str(a)]) == 0
        assert main(["--threads", "1", "hitprob", "--in", str(glued_csv),
                     "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_matrix_market_input(self, tmp_path):
        mm = tmp_path / "g.mtx"
        mm.write_text(
            "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 2 1.0\n2 3 1.0\n3 1 1.0\n")
        out = tmp_path / "phi.csv"
        assert main(["stationary", "--in", str(mm), "--format", "matrix-market",
                     "--out", str(out)]) == 0
        vals = [float(l.split(",")[1]) for l in out.read_text().splitlines()[1:]]
        assert np.allclose(vals, 1 / 3)

    @pytest.mark.parametrize("size_line, got", [("-1 -1 0", "-1 and 0"), ("0 0 0", "0 and 0")])
    def test_matrix_market_bad_size_line_exit_2(self, tmp_path, capsys, size_line, got):
        mm = tmp_path / "g.mtx"
        mm.write_text(f"%%MatrixMarket matrix coordinate real general\n{size_line}\n")
        out = tmp_path / "phi.csv"
        assert main(["stationary", "--in", str(mm), "--format", "matrix-market",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines() == [
            f"error: line 2: size line needs rows >= 1 and nnz >= 0, got {got}"]


MODEL_FLAGS = {"--nb": 3, "--nc": 4, "--C": 2, "--n-er": 20, "--n-cycle": 8,
               "--p": 0.5, "--w": 3.0}

PARSER_FLAGS = {
    "generate": {
        "--model": (None, ("glued", "er-cycle", "planted", "geometric"), True),
        "--seed": (0, None, False), "--out": (None, None, True),
        "--truth": (None, None, False), "--coords": (None, None, False),
        **{flag: (default, None, False) for flag, default in MODEL_FLAGS.items()},
        "--self-loops": (False, None, False), "--n": (300, None, False),
        "--k": (3, None, False), "--p-in": (None, None, False),
        "--p-out": (None, None, False), "--rho": (None, None, False),
        "--delta": (None, None, False), "--domain": ("circle", None, False),
        "--gamma": (1.0, None, False),
    },
    "verify": {
        "--in": (None, None, False),
        "--format": ("csv", ("csv", "matrix-market"), False),
        "--scc": (False, None, False),
        "--model": (None, ("glued", "er-cycle", "complete", "random"), False),
        **{flag: (default, None, False) for flag, default in MODEL_FLAGS.items()},
        "--n": (50, None, False), "--levels": ("identity,metric", None, False),
        "--walks": (20000, None, False), "--seed": (0, None, False),
        "--beta": ("0.5,0.75,1.0", None, False), "--tol-deg": (1e-9, None, False),
    },
}


class TestParser:
    @pytest.mark.parametrize("command", list(PARSER_FLAGS))
    def test_flags_and_defaults_pinned(self, command):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {}
        for action in sub.choices[command]._actions:
            if action.dest != "help":
                (flag,) = action.option_strings
                got[flag] = (action.default, action.choices, action.required)
        assert got == PARSER_FLAGS[command]
