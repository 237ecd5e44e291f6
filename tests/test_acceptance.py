"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them live)."""

import time

import numpy as np
import scipy.stats

from hpmetric.generators import (GeometricGraphSpec, GluedCyclesSpec,
                                 PlantedPartitionSpec, gen_er_cycle,
                                 gen_geometric, gen_glued_cycles,
                                 gen_planted_partition,
                                 gen_random_strongly_connected,
                                 glued_cycles_stationary)
from hpmetric.graphs import row_normalize, strongly_connected_components
from hpmetric.hitting import (hitting_fast, hitting_reference,
                              simulate_hit_before_return, simulate_visit_counts)
from hpmetric.metric import (degenerate_pairs, hp_distance, hp_similarity,
                             verify_metric_axioms)
from hpmetric.clustering import kmeans, pca_embed, purity_accuracy, empirical_p_value
from hpmetric.quotient import check_quotient_bounds, quotient_from_report
from hpmetric.spectral import fiedler_vector, operator_laplacian, symmetrize
from hpmetric.stationary import stationary_distribution

from conftest import directed_cycle
from test_quotient import (MULTI_CLASS_SPECS, collapse_gadget, parallel_gadget,
                           degeneracy_pipeline, sequential_collapse)

LN2 = np.log(2.0)

MC_GUARD = 1e-9  # float-representation floor under 4-sigma bands


def report(criterion, ok, detail=""):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_criterion_1_detailed_balance(acceptance_suite):
    t0 = time.perf_counter()
    worst = 0.0
    for tm in acceptance_suite:
        phi = stationary_distribution(tm).phi
        Q = hitting_fast(tm).Q
        worst = max(worst, float(np.abs(Q * phi[:, None] - Q.T * phi[None, :]).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 60.0
    assert report(1, ok, f"(balance residual {worst:.2e}, {elapsed:.1f}s on 50 graphs)")


def test_criterion_2_fast_path(acceptance_suite):
    worst = 0.0
    for tm in acceptance_suite:
        Q = hitting_fast(tm).Q
        ref = np.column_stack([hitting_reference(tm, j) for j in range(tm.n)])
        worst = max(worst, float(np.abs(Q - ref).max()))
    ok = worst <= 1e-8
    assert report(2, ok, f"(max fast/reference deviation {worst:.2e})")


def test_criterion_3_table_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    per_spec = {}
    for spec in (GluedCyclesSpec(3, 4, 2), GluedCyclesSpec(5, 55, 2)):
        tm = row_normalize(gen_glued_cycles(spec))
        phi = stationary_distribution(tm)
        worst = max(worst, float(np.abs(phi.phi - glued_cycles_stationary(spec)).max()))
        Q = hitting_fast(tm)
        A = hp_similarity(Q, phi, 0.5).A
        D = hp_distance(hp_similarity(Q, phi, 0.5)).D
        nb, nc = spec.n_b, spec.n_c
        b, c1, c2 = 0, nb, nb + nc  # first backbone / branch-1 / branch-2 nodes
        checks = {
            (Q.Q[c1, c1 + 1], 1.0), (Q.Q[c1, c2], 0.5), (Q.Q[b, c1], 0.5),
            (Q.Q[c1, b], 1.0), (Q.Q[b, 1], 1.0),
            (A[c1, c1 + 1], 1.0), (A[c1, c2], 0.5), (A[b, c1], 2 ** -0.5),
            (A[b, 1], 1.0),
            (D[c1, c1 + 1], 0.0), (D[c1, c2], LN2), (D[b, c1], LN2 / 2),
            (D[b, 1], 0.0),
        }
        worst = max(worst, max(abs(got - want) for got, want in checks))
        per_spec[spec] = (D[c1, c2], D[b, c1], D[c1, c1 + 1])
    blind = np.abs(np.diff(np.array(list(per_spec.values())), axis=0)).max()
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and blind <= 1e-8 and elapsed < 5.0
    assert report(3, ok,
                  f"(table deviation {worst:.2e}, walk-length blindness {blind:.2e}, "
                  f"{elapsed:.2f}s)")


def test_criterion_4_metric_axioms(acceptance_suite):
    worst_sym = worst_tri = 0.0
    min_pos = np.inf
    for tm in acceptance_suite:
        phi = stationary_distribution(tm)
        Q = hitting_fast(tm)
        for beta in (0.5, 0.75, 1.0):
            dist = hp_distance(hp_similarity(Q, phi, beta))
            rep = verify_metric_axioms(dist)["worst_violations"]
            worst_sym = max(worst_sym, rep["symmetry"])
            worst_tri = max(worst_tri, rep["triangle"])
            if beta > 0.5:
                min_pos = min(min_pos, rep["min_off_diagonal"])
    ok = worst_sym <= 1e-10 and worst_tri <= 1e-9 and min_pos > 0.0
    assert report(4, ok,
                  f"(symmetry {worst_sym:.2e}, triangle {worst_tri:.2e}, "
                  f"min off-diag distance {min_pos:.2e})")


def test_criterion_5_degeneracy_quotient():
    ok = True
    details = []
    for n in (4, 9):
        tm = directed_cycle(n)
        phi, Q, dist, rep, qc, labelings = degeneracy_pipeline(tm)
        ok &= qc.chain.n == 1
        details.append(f"{n}-cycle->{qc.chain.n}")
    fixtures = [row_normalize(gen_glued_cycles(GluedCyclesSpec(3, 4, 2))),
                collapse_gadget()[0], parallel_gadget()[0]]
    expected_states = {0: 3}
    worst_iso = 0.0
    violations = 0
    for t, tm in enumerate(fixtures):
        phi, Q, dist, rep, qc, labelings = degeneracy_pipeline(tm)
        if t in expected_states:
            ok &= qc.chain.n == expected_states[t]
        phi_p = stationary_distribution(qc.chain)
        Q_p = hitting_fast(qc.chain)
        dist_p = hp_distance(hp_similarity(Q_p, phi_p, 0.5))
        chk = check_quotient_bounds(dist, dist_p, qc, labelings, tol=1e-9)
        worst_iso = max(worst_iso, chk["max_isometry_error"])
        violations += len(chk["violations"])
        ok &= chk["ok"]
        ok &= not degenerate_pairs(Q_p, phi_p).degenerate
    ok &= worst_iso <= 1e-9
    assert report(5, ok,
                  f"({', '.join(details)}, glued->3 states, isometry err "
                  f"{worst_iso:.2e}, {violations} bound violations)")


def test_criterion_6_one_at_a_time():
    worst = 0.0
    for spec in MULTI_CLASS_SPECS:
        tm = row_normalize(gen_glued_cycles(spec))
        phi = stationary_distribution(tm)
        rep = degenerate_pairs(hitting_fast(tm), phi)
        simultaneous = quotient_from_report(tm, phi, rep)
        classes = rep.non_singleton()
        for order in ([*range(len(classes))], [*reversed(range(len(classes)))]):
            P_seq = sequential_collapse(tm, phi.phi, classes, order)
            worst = max(worst, float(np.abs(P_seq - simultaneous.chain.P).max()))
    ok = worst <= 1e-12
    assert report(6, ok, f"(sequential vs simultaneous deviation {worst:.2e} "
                         f"on {len(MULTI_CLASS_SPECS)} graphs)")


def test_criterion_7_monte_carlo():
    from hpmetric.graphs import make_digraph

    walks = 100_000
    chains = {
        "k3": row_normalize(make_digraph([[0, 1, 1], [1, 0, 1], [1, 1, 0]])),
        "2cycle": row_normalize(make_digraph([[0, 1], [1, 0]])),
        "glued": row_normalize(gen_glued_cycles(GluedCyclesSpec(3, 4, 2))),
    }
    hit_pairs = [("k3", i, j) for i in range(3) for j in range(3) if i != j]
    hit_pairs += [("2cycle", 0, 1), ("2cycle", 1, 0)]
    hit_pairs += [("glued", 3, 4), ("glued", 3, 7), ("glued", 0, 3),
                  ("glued", 3, 0), ("glued", 0, 1)]
    results = []
    for t, (name, i, j) in enumerate(hit_pairs):
        tm = chains[name]
        Q = hitting_fast(tm).Q
        q_hat, se = simulate_hit_before_return(tm, i, j, walks, seed=100 + t)
        results.append(abs(q_hat - Q[i, j]) <= 4 * se + MC_GUARD)
    visit_pairs = [("k3", 0, 1), ("2cycle", 0, 1), ("glued", 0, 3), ("glued", 3, 0)]
    for t, (name, i, j) in enumerate(visit_pairs):
        tm = chains[name]
        phi = stationary_distribution(tm).phi
        mean, se = simulate_visit_counts(tm, i, j, walks, seed=500 + t)
        results.append(abs(mean - phi[j] / phi[i]) <= 4 * se + MC_GUARD)
    frac = np.mean(results)
    ok = frac >= 0.99
    assert report(7, ok, f"({sum(results)}/{len(results)} combos within 4 SE, "
                         f"{walks} walks per pair)")


def test_criterion_8_fiedler_glued():
    tm = row_normalize(gen_glued_cycles(GluedCyclesSpec(3, 4, 2)))
    phi = stationary_distribution(tm)
    ok = True
    worst_backbone = 0.0
    for beta in (0.5, 1.0):
        op = symmetrize(tm, phi, "hp", beta=beta)
        v, signs = fiedler_vector(operator_laplacian(op))
        worst_backbone = max(worst_backbone, float(np.abs(v[:3]).max()))
        ok &= np.abs(v[:3]).max() < 1e-6
        ok &= len(set(signs[3:7])) == 1 and len(set(signs[7:])) == 1
        ok &= signs[3] == -signs[7] != 0
    assert report("8a", ok, f"(glued backbone max |v| = {worst_backbone:.1e}, "
                            "branches oppositely signed at beta 1/2 and 1)")


def test_criterion_8_er_cycle_separation():
    """ER block joined to a directed cycle: the Fiedler sign of the hp
    similarity at beta 1/2 splits the cycle plus the bridge node from the
    rest of the ER block.

    The bridge node is the ER head of the cycle's only exit edge.  From
    every cycle node the walk meets that exit before it returns, so it
    hits the bridge before returning with probability 1/2, and the bridge
    node's similarity row leans towards the cycle.  The test asserts this
    reason on every seed before it checks the signs of all nodes."""
    n_er, n_cycle = 20, 8
    separated, misplaced = 0, {}
    for seed in range(10):
        g = gen_er_cycle(n_er, n_cycle, 0.5, 3.0, seed=seed)
        W = np.asarray(g.weights.todense())
        exits = np.argwhere(W[n_er:, :n_er] > 0)
        assert len(exits) == 1, f"seed {seed}: cycle exits {exits.tolist()}"
        bridge = int(exits[0, 1])
        cycle = np.arange(n_er, n_er + n_cycle)
        rest = np.setdiff1d(np.arange(n_er), [bridge])

        tm = row_normalize(g)
        phi = stationary_distribution(tm)
        Q = hitting_fast(tm).Q
        np.testing.assert_allclose(Q[cycle, bridge], 0.5, rtol=0.0, atol=1e-12)
        A = hp_similarity(Q, phi, 0.5).A
        assert A[bridge, cycle].sum() > A[bridge, rest].sum(), (
            f"seed {seed}: bridge row mass on cycle {A[bridge, cycle].sum():.3f} "
            f"vs rest of ER {A[bridge, rest].sum():.3f}")

        op = symmetrize(tm, phi, "hp", beta=0.5)
        _, signs = fiedler_vector(operator_laplacian(op))
        expected = -np.ones(g.n)
        expected[cycle] = expected[bridge] = 1.0
        # The global sign of a Fiedler vector is arbitrary; orient the
        # expectation to agree with the majority of nodes.
        if np.sum(signs == expected) < np.sum(signs == -expected):
            expected = -expected
        wrong = np.flatnonzero(signs != expected)
        if wrong.size == 0:
            separated += 1
        else:
            misplaced[seed] = [g.labels[i] for i in wrong]
    ok = separated >= 9
    assert report("8b", ok, f"({separated}/10 seeds sign-separate the cycle plus "
                            f"the bridge node from the rest of the ER block; "
                            f"misplaced: {misplaced or 'none'})")


def test_criterion_9_planted_partition():
    t0 = time.perf_counter()
    rho, delta = 0.40, 0.06
    spec = PlantedPartitionSpec(n=300, k=3, p_in=rho + 2 * delta / 3,
                                p_out=rho - delta / 3)
    acc_d, acc_a = [], []
    for seed in range(10):
        g, truth = gen_planted_partition(spec, seed)
        if len(strongly_connected_components(g.weights)) != 1:
            continue
        tm = row_normalize(g)
        phi = stationary_distribution(tm)
        D = hp_distance(hp_similarity(hitting_fast(tm), phi, 0.5)).D
        A = np.asarray(g.weights.todense())
        for M, accs in ((D, acc_d), (A, acc_a)):
            coords, _ = pca_embed(M, 2)
            labels = kmeans(coords, 3, restarts=5, seed=seed)
            accs.append(purity_accuracy(labels, truth))
    margin = float(np.median(acc_d) - np.median(acc_a))
    p = empirical_p_value(float(np.median(acc_d)), 300, 3, trials=4000, seed=7)
    elapsed = time.perf_counter() - t0
    ok = margin >= 0.05 and p <= 0.01 and elapsed < 600.0
    assert report(9, ok, f"(median acc d12 {np.median(acc_d):.3f} vs A "
                         f"{np.median(acc_a):.3f}, margin {margin:.3f}, "
                         f"p {p:.2e}, {elapsed:.0f}s)")


def test_criterion_10_geometric():
    g, pts = gen_geometric(GeometricGraphSpec("circle", 500, gamma=1.0), seed=0)
    tm = row_normalize(g)
    phi = stationary_distribution(tm)
    Q = hitting_fast(tm)
    D_half = hp_distance(hp_similarity(Q, phi, 0.5)).D
    D_one = hp_distance(hp_similarity(Q, phi, 1.0)).D
    euclid = np.linalg.norm(pts - pts[0], axis=1)
    others = np.arange(1, 500)
    r_half = scipy.stats.spearmanr(D_half[0, others], euclid[others]).statistic
    r_one = scipy.stats.spearmanr(D_one[0, others], euclid[others]).statistic

    gl, _ = gen_geometric(GeometricGraphSpec("torus-lattice", 100), seed=0)
    tml = row_normalize(gl)
    phil = stationary_distribution(tml)
    Ql = hitting_fast(tml)
    Dl_half = hp_distance(hp_similarity(Ql, phil, 0.5)).D
    Dl_one = hp_distance(hp_similarity(Ql, phil, 1.0)).D
    off = ~np.eye(100, dtype=bool)
    diff = Dl_one[off] - Dl_half[off]
    shift_err = float(np.abs(diff - diff.mean()).max())

    ok = r_half > r_one and shift_err <= 1e-9
    assert report(10, ok, f"(circle spearman d12 {r_half:.4f} > d1 {r_one:.4f}; "
                          f"lattice shift error {shift_err:.2e})")


def test_criterion_11_scaling():
    times = {}
    for n in (1000, 2000):
        g = gen_random_strongly_connected(n, p=20.0 / n, seed=n)
        hitting_fast(row_normalize(gen_random_strongly_connected(100, seed=1)))  # warm BLAS
        best = np.inf
        for _ in range(3):
            tm = row_normalize(g)  # a fresh chain each time: Q is memoized per chain
            t0 = time.perf_counter()
            hitting_fast(tm)
            best = min(best, time.perf_counter() - t0)
        times[n] = best
    ratio = times[2000] / times[1000]
    ok = ratio <= 10.0
    assert report(11, ok, f"(Q at n=1000: {times[1000]:.2f}s, n=2000: "
                          f"{times[2000]:.2f}s, ratio {ratio:.1f}x)")
