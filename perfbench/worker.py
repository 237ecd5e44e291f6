"""One workload in its own process: set up, then measure in a closed loop.

Started by ``run.py``, which sets the BLAS thread count in the environment
before this process loads numpy.  Prints a JSON line with its ready time
after the warm-up operation (and stops there with ``--setup-only``), one
line after each measured part, and the result as the last line.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import resource
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg as la

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _clock() -> float:
    # The system-wide monotonic clock, so run.py can subtract its spawn time.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _median_where(records, keys) -> float:
    """Median over the operations in which any of ``keys`` ran of their sum."""
    vals = [sum(r.get(k, 0.0) for k in keys) for r in records if any(k in r for k in keys)]
    return statistics.median(vals) if vals else 0.0


def _median_ratio(records, num, den, scale=1.0) -> float:
    vals = [r[num] / r[den] * scale for r in records if r.get(den, 0.0) > 0.0 and num in r]
    return statistics.median(vals) if vals else 0.0


def _frac(records, num, den) -> float:
    total = sum(r.get(den, 0) for r in records)
    return sum(r.get(num, 0) for r in records) / total if total else 0.0


# Per-layer metric -> span names whose per-operation self times it sums.
LAYER_TIMES = {
    "graphs.load_edge_list_s": ("graphs.load_edge_list",),
    "graphs.largest_scc_s": ("graphs.largest_scc",),
    "graphs.row_normalize_s": ("graphs.row_normalize",),
    "stationary.stationary_distribution_s": ("stationary.stationary_distribution",),
    "hitting.hitting_fast_s": ("hitting.hitting_fast",),
    "hitting.inv_floor_s": ("hitting.inv_floor",),
    "metric.hp_similarity_s": ("metric.hp_similarity",),
    "metric.hp_distance_s": ("metric.hp_distance",),
    "metric.degenerate_pairs_s": ("metric.degenerate_pairs",),
    "metric.verify_metric_axioms_s": ("metric.verify_metric_axioms",),
    "quotient.quotient_from_report_s": ("quotient.quotient_from_report",),
    "quotient.segments_s": ("quotient.segments", "quotient.order_class"),
    "quotient.check_quotient_bounds_s": ("quotient.check_quotient_bounds",),
    "spectral.symmetrize_s": ("spectral.symmetrize",),
    "spectral.fiedler_vector_s": ("spectral.fiedler_vector",),
    "clustering.pca_embed_s": ("clustering.pca_embed",),
    "clustering.kmedoids_s": ("clustering.kmedoids",),
    "clustering.kmeans_s": ("clustering.kmeans",),
    "clustering.purity_accuracy_s": ("clustering.purity_accuracy",),
    "verify.level_identity_s": ("verify.level_identity",),
    "verify.level_metric_s": ("verify.level_metric",),
    "verify.level_quotient_s": ("verify.level_quotient",),
    "verify.level_oracle_s": ("verify.level_oracle",),
    "verify.submultiplicativity_slack_s": ("verify.submultiplicativity_slack",),
    "files.write_dense_csv_s": ("files.write_dense_csv",),
    "files.write_meta_s": ("files.write_meta",),
    "files.read_dense_csv_s": ("files.read_dense_csv",),
    "cli.overhead_s": ("cli.main",),
}


def layer_metrics(records, passes: int, untraced_p50: float, traced_p50: float) -> dict:
    """Per-layer values (unit by name) from the traced phase's operations."""
    out = {name: _median_where(records, keys) for name, keys in LAYER_TIMES.items()}
    out.update({
        "hitting.over_inv": _median_ratio(records, "hitting.hitting_fast", "hitting.inv_floor"),
        "hitting.gflops_computed": _median_ratio(records, "hitting.flops",
                                                 "hitting.hitting_fast", 1e-9),
        "hitting.smw_fallback_frac": _frac(records, "hitting.fallbacks", "hitting.columns"),
        "hitting.reference_path_frac": _frac(records, "hitting.reference", "hitting.calls"),
        "hitting.walks_per_s": _median_ratio(records, "hitting.walks", "verify.level_oracle"),
        "quotient.classes_collapsed": sum(r.get("quotient.collapsed", 0) for r in records) / passes,
        "files.bytes_written": sum(r.get("files.bytes", 0) for r in records) / passes,
        "files.write_MBps": _median_ratio(records, "files.dense_bytes",
                                          "files.write_dense_csv", 1e-6),
        "trace_overhead_frac": traced_p50 / untraced_p50 - 1.0,
    })
    return out


def _inv_floor(tm) -> float:
    """Time of one scipy.linalg.inv of the matrix hitting_fast inverts."""
    M = np.eye(tm.n) - tm.P
    M[0, :] = 0.0
    M[0, 0] = 1.0
    start = time.perf_counter()
    la.inv(M)
    return time.perf_counter() - start


def op_record(tracer, notes: dict) -> dict:
    """Self times and layer counts of the operation the tracer just recorded."""
    from hpmetric import files

    rec = tracer.self_times()
    rec.update(notes)
    for name, fn, args, kwargs, result in tracer.calls:
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        if name == "hitting.hitting_fast":
            n = bound["tm"].n
            for key, value in (("hitting.calls", 1), ("hitting.columns", n - 1),
                               ("hitting.fallbacks", result.smw_fallbacks),
                               ("hitting.reference", int(result.used_reference)),
                               ("hitting.flops", 2.0 * n**3),
                               ("hitting.inv_floor", _inv_floor(bound["tm"]))):
                rec[key] = rec.get(key, 0) + value
        elif name.startswith("hitting.simulate_"):
            rec["hitting.walks"] = rec.get("hitting.walks", 0) + bound["walks"]
        elif name == "quotient.quotient_from_report":
            collapsed = sum(1 for c in result.classes if len(c) > 1)
            rec["quotient.collapsed"] = rec.get("quotient.collapsed", 0) + collapsed
        elif name == "files.write_dense_csv":
            size = os.path.getsize(bound["path"])
            rec["files.dense_bytes"] = rec.get("files.dense_bytes", 0) + size
            rec["files.bytes"] = rec.get("files.bytes", 0) + size
        elif name == "files.write_meta":
            size = os.path.getsize(files.meta_path(bound["path"]))
            rec["files.bytes"] = rec.get("files.bytes", 0) + size
    return rec


def new_phase() -> dict:
    return {"durations": [], "records": [], "failures": [], "attempted": 0,
            "busy_s": 0.0, "passes": 0}


def measure(wl, sink, seconds: float, phase: dict, tracer=None) -> None:
    """Run whole passes over the inputs, one operation at a time, and stop at
    the pass boundary nearest to ``seconds`` of operation time (at least one
    pass); add what was seen to ``phase``.  Checks run between operations and
    are not timed."""
    notes = {}
    sink.target = notes
    busy = 0.0
    index = 0
    while True:
        notes.clear()
        inp = wl.inputs[index % len(wl.inputs)]
        if tracer is not None:
            tracer.start_op()
        start = time.perf_counter()
        try:
            out = wl.op(inp)
            error = None
        except Exception:  # a failed operation is counted, not fatal
            out, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.stop_op()
        busy += elapsed
        phase["attempted"] += 1
        if error is None:
            try:
                errors = wl.check(index % len(wl.inputs), out)
            except Exception:
                errors = [traceback.format_exc()]
            phase["durations"].append(elapsed)
            if tracer is not None:
                phase["records"].append(op_record(tracer, notes))
        else:
            errors = [error]
        if errors:
            phase["failures"].append(f"operation {index}: " + "; ".join(errors))
        del out
        index += 1
        passes = index // len(wl.inputs)
        if index % len(wl.inputs) == 0 and busy + busy / passes / 2 >= seconds:
            break
    phase["busy_s"] += busy
    phase["passes"] += passes


class _NoteSink:
    """Lets a workload's check report a timing into the current operation."""

    target = None

    def __call__(self, name: str, seconds: float) -> None:
        if self.target is not None:
            self.target[name] = self.target.get(name, 0.0) + seconds


def environment(seed: int, threads: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": int(threads),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True, help="directory for the workload's files")
    ap.add_argument("--smoke", action="store_true", help="tiny input sizes")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--parts", type=int, default=1,
                    help="split the measurement; wait for a stdin line before each part")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import hpmetric

    if Path(hpmetric.__file__).resolve().parent != SRC / "hpmetric":
        print(f"hpmetric imported from {hpmetric.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    # Near-equal eigenvalue and fallback warnings would flood stderr; fallbacks
    # are counted by the tracer instead.
    warnings.simplefilter("ignore", RuntimeWarning)

    sink = _NoteSink()
    wl = WORKLOADS[args.workload](args.seed, args.smoke, Path(args.tmp), sink)
    wl.op(wl.inputs[0])  # warm-up: loads BLAS, fills caches
    print(json.dumps({"ready_at": _clock()}), flush=True)
    if args.setup_only:
        return 0

    # The measurement comes in parts; run.py starts a set-up worker between
    # two parts, so the parts sample the machine at different times.
    plain, traced = new_phase(), new_phase()
    tracer = Tracer() if args.trace else None
    for _ in range(args.parts):
        if not sys.stdin.readline():
            return 1
        measure(wl, sink, args.seconds / args.parts, plain)
        if tracer is not None:
            tracer.install()
            measure(wl, sink, args.seconds / args.parts, traced, tracer)
            tracer.uninstall()
        print(json.dumps({"part_done": True}), flush=True)

    keep = ("durations", "attempted", "failures", "busy_s")
    result = {"env": environment(args.seed, os.environ.get("OPENBLAS_NUM_THREADS", "0")),
              "plain": {k: plain[k] for k in keep}}
    if tracer is not None:
        result["traced"] = {k: traced[k] for k in keep}
        result["layers"] = layer_metrics(traced["records"], traced["passes"],
                                         statistics.median(plain["durations"] or [1.0]),
                                         statistics.median(traced["durations"] or [1.0]))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
