"""The three benchmark workloads: seeded inputs, one operation, its output check.

Every operation calls the library through module attributes
(``graphs.load_edge_list``, not a name bound at import) so that the tracer's
wrappers see it.  Checks use the library's own tolerances from
``hpmetric.verify`` and are never timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hpmetric import (cli, clustering, files, generators, graphs, hitting, metric,
                      quotient, spectral, stationary)
from hpmetric.rng import stream
from hpmetric.verify import BALANCE_TOL, FAST_REF_TOL, QUOTIENT_TOL

BETA = 0.5
CHECKED_COLUMNS = 3
ORACLE_SEED = 0


def _edge_csv(tmp: Path, name: str, g) -> Path:
    path = tmp / name
    files.write_edge_csv(path, g)
    return path


def _reference_columns(tm, seed: int) -> dict:
    cols = stream(seed, 17).choice(tm.n, size=min(CHECKED_COLUMNS, tm.n), replace=False)
    return {int(j): hitting.hitting_reference(tm, int(j)) for j in cols}


def _chain_errors(phi, Q, ref_cols) -> list:
    """Detailed balance and fast/reference agreement on the seeded columns."""
    errors = []
    p = phi.phi
    balance = float(np.abs(Q * p[:, None] - Q.T * p[None, :]).max())
    if not balance <= BALANCE_TOL:
        errors.append(f"detailed balance {balance:.3e} > {BALANCE_TOL:.0e}")
    for j, ref in ref_cols.items():
        err = float(np.abs(Q[:, j] - ref).max())
        if not err <= FAST_REF_TOL:
            errors.append(f"column {j}: fast vs reference {err:.3e} > {FAST_REF_TOL:.0e}")
    return errors


class DenseWorkload:
    """One n = 2000 random weighted digraph, p = 20/n, through the whole
    dense pipeline from edge-list bytes to the hp Fiedler vector."""

    name = "dense-2000"

    def __init__(self, seed: int, smoke: bool, tmp: Path, note):
        n = 60 if smoke else 2000
        g = generators.gen_random_strongly_connected(n, p=min(1.0, 20.0 / n), seed=seed)
        self.inputs = [_edge_csv(tmp, "dense.csv", g).read_bytes()]
        self.seed = seed
        self._ref = None

    def op(self, data):
        g, _ = graphs.largest_scc(graphs.load_edge_list(data))
        tm = graphs.row_normalize(g)
        phi = stationary.stationary_distribution(tm)
        hp = hitting.hitting_fast(tm)
        dist = metric.hp_distance(metric.hp_similarity(hp, phi, BETA))
        report = metric.degenerate_pairs(hp, phi)
        sym = spectral.symmetrize(tm, phi, "hp", BETA)
        vec, _ = spectral.fiedler_vector(spectral.operator_laplacian(sym))
        return tm, phi, hp.Q, dist, report, vec

    def check(self, index, out) -> list:
        tm, phi, Q, dist, _, vec = out
        if self._ref is None:
            self._ref = _reference_columns(tm, self.seed)
        errors = _chain_errors(phi, Q, self._ref)
        if not (np.isfinite(dist.D).all() and np.isfinite(vec).all()):
            errors.append("non-finite distance or Fiedler entries")
        return errors


class CliSessionWorkload:
    """A command-line session: `hpmetric metric` on an n = 1000 edge-list CSV,
    writing the distance and similarity matrices as 17-digit CSV, then
    `hpmetric verify` on glued cycles (5, 40, 3) with all four levels and
    2000 walks, and on a random n = 300 digraph with identity, metric and
    quotient.  All three run in-process through `cli.main`.

    The Monte Carlo seed is fixed: it picks the pairs whose walks are
    simulated, and walk lengths differ by pair, so a seeded choice would make
    the operation's cost depend on the seed.  The seed draws the two random
    digraphs."""

    name = "cli-session"

    def __init__(self, seed: int, smoke: bool, tmp: Path, note):
        n_metric, n_verify = (40, 20) if smoke else (1000, 300)
        spec = generators.GluedCyclesSpec(2, 5, 2) if smoke else generators.GluedCyclesSpec(5, 40, 3)
        walks = 50 if smoke else 2000
        g = generators.gen_random_strongly_connected(n_metric, p=min(1.0, 20.0 / n_metric),
                                                     seed=seed)
        self.src = _edge_csv(tmp, "metric-in.csv", g)
        glued = _edge_csv(tmp, "glued.csv", generators.gen_glued_cycles(spec))
        rand = _edge_csv(tmp, "random.csv",
                         generators.gen_random_strongly_connected(n_verify, seed=seed))
        self.d_out = tmp / "d.csv"
        self.a_out = tmp / "a.csv"
        self.inputs = [(
            ["metric", "--in", str(self.src), "--beta", str(BETA),
             "--out", str(self.d_out), "--similarity", str(self.a_out)],
            ["verify", "--in", str(glued), "--levels", "identity,metric,quotient,oracle",
             "--walks", str(walks), "--seed", str(ORACLE_SEED)],
            ["verify", "--in", str(rand), "--levels", "identity,metric,quotient"],
        )]
        self.note = note
        self._ref = None

    def op(self, commands):
        metric_argv, *verify_argvs = commands
        for path in (self.d_out, self.a_out):
            path.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(metric_argv)
        if code != 0:
            raise RuntimeError(f"hpmetric metric exited with code {code}")
        reports = []
        for argv in verify_argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            reports.append((code, buf.getvalue()))
        return reports

    def _reference(self):
        tm = graphs.row_normalize(graphs.load_edge_list(self.src.read_bytes()))
        phi = stationary.stationary_distribution(tm)
        sim = metric.hp_similarity(hitting.hitting_fast(tm), phi, BETA)
        return tm.labels, metric.hp_distance(sim).D, sim.A

    def check(self, index, out) -> list:
        if self._ref is None:
            self._ref = self._reference()
        labels, D, A = self._ref
        errors = []
        for path, want in ((self.d_out, D), (self.a_out, A)):
            start = time.perf_counter()
            got, got_labels = files.read_dense_csv(path)
            self.note("files.read_dense_csv", time.perf_counter() - start)
            if got_labels != labels:
                errors.append(f"{path.name}: labels differ from the input's")
            elif got.shape != want.shape or not np.array_equal(got, want):
                errors.append(f"{path.name}: read-back differs from the in-memory matrix")
        for name, (code, text) in zip(("glued", "random"), out):
            if code != 0 or not json.loads(text)["ok"]:
                errors.append(f"verify on the {name} chain reported a failure (exit {code})")
        return errors


@dataclass(frozen=True)
class SmallChain:
    family: str
    graph: object
    glued: object = None  # GluedCyclesSpec for glued chains
    truth: object = None  # community labels for planted chains


SMALL_FAMILIES = ("glued", "er-cycle", "planted", "circle", "random")
SMALL_CHAINS = 40
# Sizes are fixed so that every seed costs the same; the seed only changes
# the random draws.  Sizes spread evenly over the range give operation times
# without gaps, so their median does not jump between two chains' times.
SMALL_SIZES = (100, 150)
SMOKE_CHAINS = 5
SMOKE_SIZES = (20, 30)


def _small_chain(family: str, n: int, seed: int) -> SmallChain:
    if family == "glued":
        n_c = (n - n // 10) // 3
        spec = generators.GluedCyclesSpec(n - 3 * n_c, n_c, 3)
        return SmallChain(family, generators.gen_glued_cycles(spec), glued=spec)
    if family == "er-cycle":
        n_er = int(0.7 * n)
        g = generators.gen_er_cycle(n_er, n - n_er, min(1.0, 8.0 / n_er), 3.0, seed)
        return SmallChain(family, g)
    if family == "planted":
        spec = generators.PlantedPartitionSpec(n - n % 3, 3, 0.3, 0.05)
        g, truth = generators.gen_planted_partition(spec, seed)
        return SmallChain(family, g, truth=truth)
    if family == "circle":
        g, _ = generators.gen_geometric(generators.GeometricGraphSpec("circle", n, 2.0), seed)
        return SmallChain(family, g)
    return SmallChain(family, generators.gen_random_strongly_connected(n, seed=seed))


class SmallChainsWorkload:
    """Forty chains with n = 100-150 from the paper's five families, eight
    sizes each; one operation is one chain's full analysis."""

    name = "small-chains"

    def __init__(self, seed: int, smoke: bool, tmp: Path, note):
        count, (lo, hi) = (SMOKE_CHAINS, SMOKE_SIZES) if smoke else (SMALL_CHAINS, SMALL_SIZES)
        self.inputs = [_small_chain(SMALL_FAMILIES[c % len(SMALL_FAMILIES)],
                                    lo + round((hi - lo) * c / (count - 1)), seed * 1000 + c)
                       for c in range(count)]
        self.seed = seed
        self._ref = {}

    def op(self, chain: SmallChain):
        g, index_map = graphs.largest_scc(chain.graph)
        tm = graphs.row_normalize(g)
        phi = stationary.stationary_distribution(tm)
        hp = hitting.hitting_fast(tm)
        dist = metric.hp_distance(metric.hp_similarity(hp, phi, BETA))
        report = metric.degenerate_pairs(hp, phi)
        bounds = None
        if report.degenerate:
            qc = quotient.quotient_from_report(tm, phi, report)
            labelings = [quotient.segments(tm, quotient.order_class(tm, c))
                         for c in report.non_singleton()]
            phi_q = stationary.stationary_distribution(qc.chain)
            dist_q = metric.hp_distance(
                metric.hp_similarity(hitting.hitting_fast(qc.chain), phi_q, BETA))
            bounds = quotient.check_quotient_bounds(dist, dist_q, qc, labelings,
                                                    tol=QUOTIENT_TOL)
        sym = spectral.symmetrize(tm, phi, "chung")
        vec, _ = spectral.fiedler_vector(spectral.operator_laplacian(sym))
        accuracy = None
        if chain.truth is not None:
            truth = np.asarray(chain.truth)[sorted(index_map)]
            by_medoids = clustering.kmedoids(dist.D, 3, seed=self.seed)
            coords, _ = clustering.pca_embed(dist.D, 2)
            by_means = clustering.kmeans(coords, 3, seed=self.seed)
            accuracy = (clustering.purity_accuracy(by_medoids, truth),
                        clustering.purity_accuracy(by_means, truth))
        return tm, phi, hp.Q, report, bounds, vec, accuracy

    def check(self, index, out) -> list:
        tm, phi, Q, report, bounds, vec, accuracy = out
        chain = self.inputs[index]
        if index not in self._ref:
            self._ref[index] = _reference_columns(tm, self.seed + index)
        errors = _chain_errors(phi, Q, self._ref[index])
        if chain.glued is not None:
            exact = generators.glued_cycles_stationary(chain.glued)
            err = float(np.abs(phi.phi - exact).max())
            if not err <= BALANCE_TOL:
                errors.append(f"glued phi off the closed form by {err:.3e}")
            if chain.glued.n_b > 1 and not report.degenerate:
                errors.append("glued chain not detected as degenerate")
        if bounds is not None and not bounds["ok"]:
            errors.append(f"{len(bounds['violations'])} quotient bound violation(s)")
        if not np.isfinite(vec).all():
            errors.append("non-finite Fiedler entries")
        if accuracy is not None and not all(0.0 < a <= 1.0 for a in accuracy):
            errors.append(f"purity accuracy out of range: {accuracy}")
        return errors


WORKLOADS = {w.name: w for w in (DenseWorkload, SmallChainsWorkload, CliSessionWorkload)}
