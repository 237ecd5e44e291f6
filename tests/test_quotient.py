import struct
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from hpmetric.errors import StructureError
from hpmetric.generators import GluedCyclesSpec, gen_er_cycle, gen_glued_cycles
from hpmetric.graphs import largest_scc, make_digraph, row_normalize
from hpmetric.hitting import hitting_fast
from hpmetric.metric import degenerate_pairs, hp_distance, hp_similarity
from hpmetric.quotient import (OrderedClass, check_quotient_bounds, order_class, quotient_chain,
                               quotient_from_report, segments)
from hpmetric.rng import stream
from hpmetric.stationary import StationaryDistribution, stationary_distribution

from conftest import directed_cycle, pipeline, random_chain
from oracles import (oracle_order_class, oracle_quotient_bounds, oracle_quotient_chain,
                     oracle_segments)


def collapse_gadget():
    """Four nodes a, b, i, j with class {a, b}; j sits between a and b, i
    between b and a."""
    labels = ["a", "b", "i", "j"]
    idx = {l: t for t, l in enumerate(labels)}
    W = np.zeros((4, 4))
    for s, d in [("a", "j"), ("a", "b"), ("j", "b"), ("b", "i"), ("b", "a"), ("i", "a")]:
        W[idx[s], idx[d]] = 1.0
    return row_normalize(make_digraph(W, labels)), idx


def parallel_gadget():
    """Class {a, b} with two singleton nodes j1, j2 sharing the segment
    between a and b."""
    labels = ["a", "b", "i", "j1", "j2"]
    idx = {l: t for t, l in enumerate(labels)}
    W = np.zeros((5, 5))
    for s, d in [("a", "j1"), ("a", "j2"), ("j1", "b"), ("j2", "b"), ("a", "b"),
                 ("b", "a"), ("b", "i"), ("i", "a")]:
        W[idx[s], idx[d]] = 1.0
    return row_normalize(make_digraph(W, labels)), idx


def degeneracy_pipeline(tm):
    phi, Q, dist = pipeline(tm)
    report = degenerate_pairs(Q, phi)
    qc = quotient_from_report(tm, phi, report)
    labelings = [segments(tm, order_class(tm, c)) for c in report.non_singleton()]
    return phi, Q, dist, report, qc, labelings


class TestOrderClass:
    def test_directed_cycle_order(self):
        tm = directed_cycle(4)
        oc = order_class(tm, [0, 1, 2, 3])
        assert oc.members == [0, 1, 2, 3]

    def test_backbone_chain_order(self, glued_342):
        oc = order_class(glued_342, [0, 1, 2])
        assert oc.members == [0, 1, 2]

    def test_gadget_two_node_class(self):
        tm, idx = collapse_gadget()
        oc = order_class(tm, [idx["a"], idx["b"]])
        assert oc.members == [idx["a"], idx["b"]]

    def test_non_class_rejected(self, k3):
        with pytest.raises(StructureError):
            order_class(k3, [0, 1])


class TestSegments:
    def test_glued_backbone_segments(self, glued_342):
        oc = order_class(glued_342, [0, 1, 2])
        seg = segments(glued_342, oc)
        # Every branch node first reaches b1 (= member 0): one shared segment.
        assert set(seg.labels) == set(range(3, 11))
        assert set(seg.labels.values()) == {0}

    def test_cycle_has_no_outside_nodes(self):
        tm = directed_cycle(5)
        seg = segments(tm, order_class(tm, list(range(5))))
        assert seg.labels == {}

    def test_gadget_segments(self):
        tm, idx = collapse_gadget()
        seg = segments(tm, order_class(tm, [idx["a"], idx["b"]]))
        assert seg.labels[idx["j"]] == 1  # between a and b
        assert seg.labels[idx["i"]] == 0  # between b and a


class TestQuotientChain:
    def test_cycle_collapses_to_point(self):
        tm = directed_cycle(6)
        phi = stationary_distribution(tm)
        qc = quotient_chain(tm, phi, [list(range(6))])
        assert qc.chain.n == 1
        assert qc.chain.P[0, 0] == pytest.approx(1.0)
        assert qc.phi_prime[0] == pytest.approx(1.0)

    def test_two_cycle_single_class(self, two_cycle):
        phi = stationary_distribution(two_cycle)
        qc = quotient_chain(two_cycle, phi, [[0, 1]])
        assert qc.chain.P.shape == (1, 1)

    def test_glued_quotient_matrix(self, glued_342):
        phi, Q, dist, report, qc, labelings = degeneracy_pipeline(glued_342)
        assert qc.chain.n == 3
        expected = np.array([
            [2 / 3, 1 / 6, 1 / 6],
            [1 / 4, 3 / 4, 0.0],
            [1 / 4, 0.0, 3 / 4],
        ])
        assert np.abs(qc.chain.P - expected).max() <= 1e-12
        assert np.abs(qc.phi_prime - np.array([3 / 7, 2 / 7, 2 / 7])).max() <= 1e-12

    def test_phi_prime_matches_recomputation(self, glued_342):
        phi, Q, dist, report, qc, labelings = degeneracy_pipeline(glued_342)
        phi_p = stationary_distribution(qc.chain)
        assert np.abs(phi_p.phi - qc.phi_prime).max() <= 1e-10

    def test_gadget_lemma_scaling(self):
        # Collapsing {a, b}: Q[a, j] = |class| * Q'[class, j] and the
        # cross-segment pair obeys Q/2 < Q' < Q.
        tm, idx = collapse_gadget()
        phi, Q, dist, report, qc, labelings = degeneracy_pipeline(tm)
        Qp = hitting_fast(qc.chain).Q
        cls = qc.class_map[idx["a"]]
        jq = qc.class_map[idx["j"]]
        iq = qc.class_map[idx["i"]]
        assert Q.Q[idx["a"], idx["j"]] == pytest.approx(2 * Qp[cls, jq], abs=1e-10)
        assert Q.Q[idx["i"], idx["j"]] == pytest.approx(Qp[iq, jq] * 4 / 3, abs=1e-10)
        q, qp = Q.Q[idx["i"], idx["j"]], Qp[iq, jq]
        assert 0.5 * q < qp < q

    def test_quotient_removes_degeneracy(self, glued_342):
        phi, Q, dist, report, qc, labelings = degeneracy_pipeline(glued_342)
        phi_p = stationary_distribution(qc.chain)
        Q_p = hitting_fast(qc.chain)
        rep_p = degenerate_pairs(Q_p, phi_p)
        assert not rep_p.degenerate
        dist_p = hp_distance(hp_similarity(Q_p, phi_p, 0.5))
        from hpmetric.metric import verify_metric_axioms

        rep = verify_metric_axioms(dist_p)
        assert rep["symmetry_ok"] and rep["triangle_ok"] and rep["positivity_ok"]


def assert_same_quotient(got, want, atol):
    """Same classes, map, orders and labels; P' and phi' bit-identical when
    ``atol`` is None, else within ``atol``."""
    assert got.classes == want.classes
    assert got.class_map.tolist() == list(want.class_map)
    assert got.orders == want.orders
    assert got.chain.labels == want.chain.labels
    assert got.chain.P.flags.c_contiguous
    for a, b in ((got.chain.P, want.chain.P), (got.phi_prime, want.phi_prime)):
        if atol is None:
            assert a.tobytes() == b.tobytes()
        else:
            assert np.abs(a - b).max() <= atol


class TestQuotientOracle:
    """quotient_chain's sparse class sums against the dense-indicator products."""

    @pytest.mark.parametrize("make", [lambda: random_chain(300, seed=1),
                                      lambda: row_normalize(gen_er_cycle(20, 8, 0.5, 3.0, 1))],
                             ids=["random-300", "er-cycle"])
    def test_singletons_bit_identical(self, make):
        tm = make()
        phi = stationary_distribution(tm)
        partition = [[i] for i in range(tm.n)][::-1]
        assert_same_quotient(quotient_chain(tm, phi, partition),
                             oracle_quotient_chain(tm, phi, partition), None)

    @pytest.mark.parametrize("spec", [GluedCyclesSpec(5, 40, 3), GluedCyclesSpec(10, 30, 4)],
                             ids=["5-40-3", "10-30-4"])
    def test_glued_classes(self, spec):
        tm = row_normalize(gen_glued_cycles(spec))
        phi = stationary_distribution(tm)
        report = degenerate_pairs(hitting_fast(tm), phi)
        got = quotient_from_report(tm, phi, report)
        want = oracle_quotient_chain(tm, phi, report.classes)
        want = replace(want, orders=[oracle_order_class(tm, c) for c in report.non_singleton()])
        assert len(got.orders) >= 3
        assert_same_quotient(got, want, 1e-14)

    def test_arbitrary_partition(self):
        tm = random_chain(200, seed=3)
        phi = stationary_distribution(tm)
        which = stream(5).integers(17, size=tm.n)
        partition = [np.flatnonzero(which == u).tolist() for u in range(17)]
        assert_same_quotient(quotient_chain(tm, phi, partition),
                             oracle_quotient_chain(tm, phi, partition), 1e-14)

    @pytest.mark.parametrize("partition", [[[0, 1, 2], []], [[0, 1], [1, 2]], [[0], [2]], []],
                             ids=["empty-class", "overlap", "uncovered", "no-classes"])
    def test_bad_partition_rejected(self, k3, partition):
        with pytest.raises(StructureError, match="cover every state"):
            quotient_chain(k3, stationary_distribution(k3), partition)


class TestBounds:
    def test_identity_quotient_is_exact(self, k3):
        phi, Q, dist, report, qc, labelings = degeneracy_pipeline(k3)
        phi_p, Q_p, dist_p = pipeline(qc.chain)
        assert np.abs(dist_p.D - dist.D).max() <= 1e-12
        chk = check_quotient_bounds(dist, dist_p, qc, labelings)
        assert chk["ok"]
        assert chk["same_segment_pairs"] == chk["pairs_checked"]

    def test_glued_bounds_hold(self, glued_342):
        phi, Q, dist, report, qc, labelings = degeneracy_pipeline(glued_342)
        phi_p, Q_p, dist_p = pipeline(qc.chain)
        chk = check_quotient_bounds(dist, dist_p, qc, labelings)
        assert chk["ok"]
        assert chk["pairs_checked"] == 40

    def test_parallel_gadget_isometry(self):
        tm, idx = parallel_gadget()
        phi, Q, dist, report, qc, labelings = degeneracy_pipeline(tm)
        phi_p, Q_p, dist_p = pipeline(qc.chain)
        chk = check_quotient_bounds(dist, dist_p, qc, labelings)
        assert chk["ok"]
        assert chk["same_segment_pairs"] == 1
        assert chk["max_isometry_error"] <= 1e-12


def sequential_collapse(tm, phi_vec, class_sets, order):
    """Collapse non-singleton classes one at a time in the given order,
    tracking original-node sets through each relabeling."""
    state_sets = [{i} for i in range(tm.n)]
    cur_tm, cur_phi = tm, phi_vec
    for pick in order:
        target = set(class_sets[pick])
        merged = [s for s in range(cur_tm.n) if state_sets[s] <= target]
        partition = [merged] + [[s] for s in range(cur_tm.n) if s not in merged]
        qc = quotient_chain(cur_tm, StationaryDistribution(phi=cur_phi), partition)
        state_sets = [set().union(*(state_sets[s] for s in cls)) for cls in qc.classes]
        cur_tm, cur_phi = qc.chain, qc.phi_prime
    key = sorted(range(cur_tm.n), key=lambda s: min(state_sets[s]))
    return cur_tm.P[np.ix_(key, key)]


MULTI_CLASS_SPECS = [
    GluedCyclesSpec(2, 3, 2), GluedCyclesSpec(3, 4, 2), GluedCyclesSpec(2, 2, 3),
    GluedCyclesSpec(4, 3, 2), GluedCyclesSpec(5, 2, 3), GluedCyclesSpec(2, 5, 2),
    GluedCyclesSpec(3, 3, 3), GluedCyclesSpec(2, 4, 3), GluedCyclesSpec(4, 2, 4),
    GluedCyclesSpec(3, 2, 2),
]


@pytest.mark.parametrize("spec", MULTI_CLASS_SPECS,
                         ids=[f"{s.n_b}-{s.n_c}-{s.C}" for s in MULTI_CLASS_SPECS])
def test_one_class_at_a_time(spec):
    tm = row_normalize(gen_glued_cycles(spec))
    phi = stationary_distribution(tm)
    Q = hitting_fast(tm)
    report = degenerate_pairs(Q, phi)
    assert len(report.non_singleton()) >= 3
    simultaneous = quotient_from_report(tm, phi, report)
    classes = report.non_singleton()
    assert simultaneous.orders == [order_class(tm, c) for c in classes]
    for order in ([*range(len(classes))], [*reversed(range(len(classes)))]):
        P_seq = sequential_collapse(tm, phi.phi, classes, order)
        assert np.abs(P_seq - simultaneous.chain.P).max() <= 1e-12


def small_chains_glued(n):
    """The glued chain of size n in the benchmark's small-chains workload."""
    n_c = (n - n // 10) // 3
    return row_normalize(gen_glued_cycles(GluedCyclesSpec(n - 3 * n_c, n_c, 3)))


def er_cycle(n, seed):
    n_er = int(0.7 * n)
    g = gen_er_cycle(n_er, n - n_er, min(1.0, 8.0 / n_er), 3.0, seed)
    return row_normalize(largest_scc(g)[0])


ORACLE_CHAINS = {
    **{f"glued-{s.n_b}-{s.n_c}-{s.C}": (lambda s=s: row_normalize(gen_glued_cycles(s)))
       for s in MULTI_CLASS_SPECS},
    **{f"small-glued-{n}": (lambda n=n: small_chains_glued(n)) for n in (100, 125, 150)},
    "collapse-gadget": lambda: collapse_gadget()[0],
    "parallel-gadget": lambda: parallel_gadget()[0],
    "er-cycle-100": lambda: er_cycle(100, 7),
    "er-cycle-130": lambda: er_cycle(130, 8),
    "random-60": lambda: random_chain(60, seed=5),
    "random-120": lambda: random_chain(120, seed=6),
}


def outcome(f, *args):
    """The result of f(*args), or the message of the StructureError it raised."""
    try:
        return f(*args)
    except StructureError as e:
        return f"StructureError: {e}"


def member_sets(tm, classes, seed):
    """Mostly non-classes: each genuine class, with one member dropped and
    with one outside node added, then random sets of 1 to 8 nodes."""
    rng = stream(seed, 3)
    sets = []
    for cls in classes:
        outside = sorted(set(range(tm.n)) - set(cls))
        sets += [cls, cls[1:], cls + [outside[int(rng.integers(len(outside)))]]]
    for _ in range(40):
        size = int(rng.integers(1, min(8, tm.n) + 1))
        sets.append(rng.choice(tm.n, size=size, replace=False).tolist())
    return sets


def bits(x):
    return struct.pack("<d", x)


# Quotient distances as computed, and moved so that each failure kind occurs.
SCALES = {"as-is": lambda D: D, "half": lambda D: D * 0.5,
          "stretched": lambda D: D * 1.01 + 0.01}


@pytest.mark.parametrize("name", list(ORACLE_CHAINS))
class TestAgainstOracles:
    """The whole-array checks against the per-node BFS and per-pair loop in
    tests/oracles.py: same results, same errors, same bits."""

    def test_order_class_and_segments(self, name):
        tm = ORACLE_CHAINS[name]()
        phi, Q, dist = pipeline(tm)
        classes = degenerate_pairs(Q, phi).non_singleton()
        raised = 0
        for members in member_sets(tm, classes, seed=len(name)):
            got = outcome(order_class, tm, members)
            assert got == outcome(oracle_order_class, tm, members), members
            raised += isinstance(got, str)
            # segments in commute order when there is one, else in draw order
            cls = got if isinstance(got, OrderedClass) else OrderedClass(members=members)
            got = outcome(segments, tm, cls)
            assert got == outcome(oracle_segments, tm, cls), cls.members
            if not isinstance(got, str):
                assert all(type(k) is int for k in got.labels.values())
        assert raised > 0

    @pytest.mark.parametrize("tol", [1e-9, -1.0])  # below zero, one pair can fail twice
    @pytest.mark.parametrize("scale", list(SCALES))
    def test_quotient_bounds(self, name, scale, tol):
        tm = ORACLE_CHAINS[name]()
        phi, Q, dist, report, qc, labelings = degeneracy_pipeline(tm)
        dist_p = SimpleNamespace(D=SCALES[scale](pipeline(qc.chain)[2].D))
        got = check_quotient_bounds(dist, dist_p, qc, labelings, tol)
        want = oracle_quotient_bounds(dist, dist_p, qc, labelings, tol)
        assert {k: got[k] for k in ("ok", "pairs_checked", "same_segment_pairs")} == \
            {k: want[k] for k in ("ok", "pairs_checked", "same_segment_pairs")}
        assert bits(got["max_isometry_error"]) == bits(want["max_isometry_error"])
        assert len(got["violations"]) == len(want["violations"])
        for g, w in zip(got["violations"], want["violations"]):
            assert g[:3] == w[:3] and bits(g[3]) == bits(w[3]), (g, w)
        if scale == "as-is" and tol > 0:
            assert got["ok"]


def test_bounds_violation_kinds_all_occur():
    """SCALES does reach all three failure kinds."""
    kinds = set()
    for name, scale in [("random-60", "half"), ("glued-2-2-3", "half"),
                        ("glued-2-2-3", "stretched")]:
        tm = ORACLE_CHAINS[name]()
        phi, Q, dist, report, qc, labelings = degeneracy_pipeline(tm)
        dist_p = SimpleNamespace(D=SCALES[scale](pipeline(qc.chain)[2].D))
        chk = check_quotient_bounds(dist, dist_p, qc, labelings)
        kinds |= {v[2] for v in chk["violations"]}
    assert kinds == {"isometry", "lower", "upper"}


def test_bounds_memory_within_one_matrix():
    """Row blocks keep the check's temporaries near one n x n float64."""
    n = 400
    tm = random_chain(n, seed=11)
    phi, Q, dist = pipeline(tm)
    qc = quotient_chain(tm, phi, [[i] for i in range(n)])
    dist_p = pipeline(qc.chain)[2]
    tracemalloc.start()
    try:
        chk = check_quotient_bounds(dist, dist_p, qc, [])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chk["pairs_checked"] == n * (n - 1) // 2
    assert peak <= 1.25 * 8 * n * n
