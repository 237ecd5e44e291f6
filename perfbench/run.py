"""hpmetric benchmark: one workload per run, each in its own worker process.

    python3 perfbench/run.py --workload dense-2000 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

A run sets up the workload ``SETUP_SAMPLES`` times in fresh processes and
reports the median set-up time.  The first process goes on to measure: one
client in a closed loop for about ``--seconds`` of operation time, split into
``SETUP_SAMPLES`` parts with another set-up run between each two, and every
output checked.  ``--trace 1`` measures once
untraced and once with spans around the library's public functions, and
reports the per-layer metrics instead of the end-to-end ones.  The last
stdout line is the result as JSON; lines before it give the environment and
each metric with its unit and sample count.  ``--smoke`` runs every workload
at tiny sizes in both modes and checks the metric names against
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
TMP = ROOT / ".perfbench_tmp"

WORKLOADS = ("dense-2000", "small-chains", "cli-session")
SETUP_SAMPLES = 3
# One thread: with two on a two-core machine, OpenBLAS's thread hand-offs on
# n ~ 100 matrices made small-chains 1.7x slower and three times as noisy,
# while dense-2000 gained only 10%.
BLAS_THREADS = 1
DEADLINE_S = 170.0
P90_MIN_SAMPLES = 100

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "graphs.load_edge_list_s": "s",
    "graphs.largest_scc_s": "s",
    "graphs.row_normalize_s": "s",
    "stationary.stationary_distribution_s": "s",
    "hitting.hitting_fast_s": "s",
    "hitting.inv_floor_s": "s",
    "hitting.over_inv": "ratio",
    "hitting.gflops_computed": "GFLOP/s",
    "hitting.smw_fallback_frac": "fraction",
    "hitting.reference_path_frac": "fraction",
    "hitting.walks_per_s": "1/s",
    "metric.hp_similarity_s": "s",
    "metric.hp_distance_s": "s",
    "metric.degenerate_pairs_s": "s",
    "metric.verify_metric_axioms_s": "s",
    "quotient.quotient_from_report_s": "s",
    "quotient.segments_s": "s",
    "quotient.check_quotient_bounds_s": "s",
    "quotient.classes_collapsed": "count",
    "spectral.symmetrize_s": "s",
    "spectral.fiedler_vector_s": "s",
    "clustering.pca_embed_s": "s",
    "clustering.kmedoids_s": "s",
    "clustering.kmeans_s": "s",
    "clustering.purity_accuracy_s": "s",
    "verify.level_identity_s": "s",
    "verify.level_metric_s": "s",
    "verify.level_quotient_s": "s",
    "verify.level_oracle_s": "s",
    "verify.submultiplicativity_slack_s": "s",
    "files.write_dense_csv_s": "s",
    "files.write_meta_s": "s",
    "files.bytes_written": "bytes",
    "files.write_MBps": "MB/s",
    "files.read_dense_csv_s": "s",
    "cli.overhead_s": "s",
    "trace_overhead_frac": "fraction",
}


class BenchError(Exception):
    pass


def _clock() -> float:
    # The system-wide monotonic clock; workers report their ready time on it.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker_env() -> dict:
    """Environment with one BLAS thread count for every workload, set before
    the worker loads numpy."""
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    env.pop("HPMETRIC_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _json_line(stream) -> dict:
    line = stream.readline()
    if not line:
        raise BenchError("worker ended early")
    return json.loads(line)


def _setup_once(args: list, deadline: float) -> float:
    """Start a worker that stops after set-up; returns its set-up time."""
    spawned = _clock()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args, "--setup-only"], cwd=ROOT,
                              env=_worker_env(), stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise BenchError("set-up worker did not finish before the run's deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"set-up worker exited with code {proc.returncode}")
    try:
        return json.loads(proc.stdout.splitlines()[-1])["ready_at"] - spawned
    except (IndexError, KeyError, ValueError):
        raise BenchError("set-up worker printed no ready time") from None


def _measure(args: list, deadline: float):
    """Start the measuring worker and run a set-up worker between each two of
    its parts.  Returns the worker's result and all set-up times."""
    spawned = _clock()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args,
                             "--parts", str(SETUP_SAMPLES)], cwd=ROOT, env=_worker_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    watchdog = threading.Timer(max(1.0, deadline - spawned), kill)
    watchdog.start()
    try:
        setups = [_json_line(proc.stdout)["ready_at"] - spawned]
        for part in range(SETUP_SAMPLES):
            proc.stdin.write("go\n")
            proc.stdin.flush()
            _json_line(proc.stdout)
            if part < SETUP_SAMPLES - 1:
                setups.append(_setup_once(args, deadline))
        proc.stdin.close()
        result = _json_line(proc.stdout)
        if proc.wait() != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
    except (BenchError, BrokenPipeError, ValueError) as exc:
        if timed_out.is_set():
            raise BenchError("worker did not finish before the run's deadline") from None
        raise BenchError(f"worker failed: {exc}") from None
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    return result, setups


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool = False):
    """Run one workload; returns the result object and the lines describing it."""
    deadline = _clock() + DEADLINE_S
    tmp = TMP / f"{name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--tmp", str(tmp)] + (["--smoke"] if smoke else [])
    try:
        res, setups = _measure(args, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass

    plain = res["plain"]
    durations = plain["durations"]
    if not durations:
        raise BenchError("no operation completed")
    failures = list(plain["failures"])
    attempted = plain["attempted"]
    env = dict(res["env"], workload=name, git_commit=_git_commit())
    lines = [f"env: {json.dumps(env, sort_keys=True)}"]
    if trace:
        failures += res["traced"]["failures"]
        attempted += res["traced"]["attempted"]
        samples = len(res["traced"]["durations"])
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in res["layers"].items()}
    else:
        samples = len(durations)
        metrics = {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(durations),
            "ops_per_s": len(durations) / plain["busy_s"],
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    for k, m in metrics.items():
        n = len(setups) if k == "setup_s" else samples
        lines.append(f"{name} {k} = {m['value']:.6g} {m['unit']} (samples={n})")
    if not trace and len(durations) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(durations, n=10)[-1]
        lines.append(f"{name} op_p90_s = {p90:.6g} s (samples={len(durations)})")
    lines.append(f"{name} failed_frac = {len(failures) / attempted:.6g} "
                 f"({len(failures)} of {attempted} operations)")
    for msg in failures[:3]:
        print(msg, file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return result, lines


def smoke() -> int:
    """Every workload once at tiny sizes, both modes; names match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for key, want in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        got = {m["name"]: m["unit"] for m in spec[key]}
        if got != want:
            problems.append(f"BENCHMARK.json {key} differs from run.py: {got} != {want}")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for name in WORKLOADS:
        for trace, want in ((0, END_TO_END), (1, PER_LAYER)):
            result, lines = run_workload(name, seed=1, seconds=0, trace=trace, smoke=True)
            print("\n".join(lines))
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics {sorted(got)} "
                                f"!= {sorted(want)}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{name} trace={trace}: {result['failed']} failed operation(s)")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload once at tiny sizes and check the metric names")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hpmetric" / "__init__.py").is_file():
        print(f"no hpmetric sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required unless --smoke is given")
        result, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
