"""Command line interface.

Subcommands: stationary, hitprob, metric, quotient, symmetrize, fiedler,
generate, cluster, embed, verify.  Exit codes: 0 success,
1 verification failure, 2 input/domain error, 3 numerical failure.

Thread count for the BLAS backends comes from --threads or HPMETRIC_THREADS
and must be configured before numpy loads, so all compute imports happen
inside the handlers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _configure_threads(threads) -> None:
    if threads is None:
        threads = os.environ.get("HPMETRIC_THREADS")
    if threads is None:
        return
    t = str(int(threads))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = t


def _load_chain(args):
    from .graphs import largest_scc, load_edge_list, row_normalize

    if getattr(args, "model", None):
        return row_normalize(_model(args)[0])
    if args.input == "-":
        g = load_edge_list(sys.stdin.buffer, format=args.format)
    else:
        with open(args.input, "rb") as fh:
            g = load_edge_list(fh, format=args.format)
    if getattr(args, "scc", False):
        g, _ = largest_scc(g)
    return row_normalize(g)


def _add_input_flags(p, required=True):
    p.add_argument("--in", dest="input", required=required,
                   help="edge list path ('-' for stdin)")
    p.add_argument("--format", choices=("csv", "matrix-market"), default="csv")
    p.add_argument("--scc", action="store_true",
                   help="restrict the input to its largest strongly connected component")


def _add_model_flags(p, n_default):
    """Sizes and weights of the generated models, shared by generate and verify."""
    p.add_argument("--nb", type=int, default=3)
    p.add_argument("--nc", type=int, default=4)
    p.add_argument("--C", type=int, default=2)
    p.add_argument("--n-er", type=int, default=20, dest="n_er")
    p.add_argument("--n-cycle", type=int, default=8, dest="n_cycle")
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--w", type=float, default=3.0)
    p.add_argument("--n", type=int, default=n_default)


def cmd_stationary(args) -> int:
    from .files import write_column_csv, write_meta
    from .stationary import stationary_distribution

    started = time.time()
    tm = _load_chain(args)
    phi = stationary_distribution(tm)
    write_column_csv(args.out, tm.labels, {"phi": phi.phi})
    write_meta(args.out, "stationary", {"input": args.input}, started=started)
    return 0


def cmd_hitprob(args) -> int:
    from .files import write_dense_csv, write_meta
    from .hitting import hitting_by_reduction, hitting_fast, simulate_hit_before_return

    from .errors import InputError

    started = time.time()
    tm = _load_chain(args)
    if args.mc:
        src, dst = args.mc
        for lab in (src, dst):
            if lab not in tm.labels:
                raise InputError(f"unknown node label {lab!r}")
        i, j = tm.labels.index(src), tm.labels.index(dst)
        q, se = simulate_hit_before_return(tm, i, j, args.walks, args.seed)
        print(json.dumps({"source": src, "target": dst, "estimate": q,
                          "standard_error": se, "walks": args.walks,
                          "seed": args.seed}))
        return 0
    if not args.out:
        raise InputError("hitprob needs --out (or --mc I J)")
    if args.reference:
        Q, reference = hitting_by_reduction(tm), True
    else:
        hp = hitting_fast(tm)
        Q, reference = hp.Q, hp.used_reference
    write_dense_csv(args.out, Q, tm.labels)
    write_meta(args.out, "hitprob",
               {"input": args.input, "path": "reference" if reference else "fast"},
               started=started)
    return 0


def cmd_metric(args) -> int:
    from .files import write_dense_csv, write_meta
    from .hitting import hitting_fast
    from .metric import hp_distance, hp_similarity
    from .stationary import stationary_distribution

    started = time.time()
    tm = _load_chain(args)
    labels = tm.labels
    phi = stationary_distribution(tm)
    hp = hitting_fast(tm)
    sim = hp_similarity(hp, phi, args.beta)
    # Dropped after hp_similarity, not before: the earlier drop lowers the
    # traced peak to 3.05 n x n, but in a process that repeats the command it
    # fragmented the heap and raised peak RSS by one n x n in half the runs.
    del tm, hp  # P, and the memo that also holds Q
    dist = hp_distance(sim, tol_deg=args.tol_deg)
    write_dense_csv(args.out, dist.D, labels)
    params = {"input": args.input, "beta": args.beta, "tol_deg": args.tol_deg,
              "is_pseudo": dist.is_pseudo}
    write_meta(args.out, "metric", params, started=started)
    if args.similarity:
        write_dense_csv(args.similarity, sim.A, labels)
        write_meta(args.similarity, "metric", params, started=started)
    return 0


def cmd_quotient(args) -> int:
    from .files import write_edge_csv, write_meta
    from .graphs import make_digraph
    from .hitting import hitting_fast
    from .metric import degenerate_pairs
    from .quotient import quotient_from_report
    from .stationary import stationary_distribution

    started = time.time()
    tm = _load_chain(args)
    phi = stationary_distribution(tm)
    report = degenerate_pairs(hitting_fast(tm), phi, args.tol_deg)
    qc = quotient_from_report(tm, phi, report)
    write_edge_csv(args.out, make_digraph(qc.chain.P, qc.chain.labels))
    write_meta(args.out, "quotient", {"input": args.input, "tol_deg": args.tol_deg,
                                      "n_classes": len(qc.classes)}, started=started)
    with open(args.map, "w", encoding="utf-8") as fh:
        fh.write("node,class\n")
        for i, lab in enumerate(tm.labels):
            fh.write(f"{lab},{qc.chain.labels[qc.class_map[i]]}\n")
    return 0


def cmd_symmetrize(args) -> int:
    from .files import write_dense_csv, write_meta
    from .spectral import symmetrize
    from .stationary import stationary_distribution

    started = time.time()
    tm = _load_chain(args)
    phi = stationary_distribution(tm)
    op = symmetrize(tm, phi, args.method, beta=args.beta)
    write_dense_csv(args.out, op.M, tm.labels)
    write_meta(args.out, "symmetrize",
               {"input": args.input, "method": args.method, "beta": args.beta},
               started=started)
    return 0


def cmd_fiedler(args) -> int:
    from .files import write_column_csv, write_meta
    from .spectral import fiedler_vector, operator_laplacian, symmetrize
    from .stationary import stationary_distribution

    started = time.time()
    tm = _load_chain(args)
    labels = tm.labels
    phi = stationary_distribution(tm)
    op = symmetrize(tm, phi, args.method, beta=args.beta)
    del tm
    L = operator_laplacian(op)
    del op
    v, signs = fiedler_vector(L)
    sign_chars = ["-" if s < 0 else ("+" if s > 0 else "0") for s in signs]
    write_column_csv(args.out, labels, {"value": v, "sign": sign_chars})
    write_meta(args.out, "fiedler",
               {"input": args.input, "method": args.method, "beta": args.beta},
               started=started)
    return 0


def _model(args):
    """The ``--model`` graph, with generate's parameters, truth and coordinates."""
    params = truth = coords = None
    if args.model == "glued":
        from .generators import GluedCyclesSpec, gen_glued_cycles

        g = gen_glued_cycles(GluedCyclesSpec(args.nb, args.nc, args.C))
        params = {"model": "glued", "nb": args.nb, "nc": args.nc, "C": args.C}
    elif args.model == "er-cycle":
        from .generators import gen_er_cycle

        self_loops = getattr(args, "self_loops", False)
        g = gen_er_cycle(args.n_er, args.n_cycle, args.p, args.w, args.seed,
                         self_loops=self_loops)
        params = {"model": "er-cycle", "n_er": args.n_er, "n_cycle": args.n_cycle,
                  "p": args.p, "w": args.w, "self_loops": self_loops}
    elif args.model == "planted":
        from .errors import InputError
        from .generators import PlantedPartitionSpec, gen_planted_partition

        if args.p_in is not None and args.p_out is not None:
            p_in, p_out = args.p_in, args.p_out
        elif args.rho is not None and args.delta is not None:
            p_in = args.rho + 2.0 * args.delta / 3.0
            p_out = args.rho - args.delta / 3.0
        else:
            raise InputError("planted model needs --p-in/--p-out or --rho/--delta")
        g, truth = gen_planted_partition(
            PlantedPartitionSpec(args.n, args.k, p_in, p_out), args.seed)
        params = {"model": "planted", "n": args.n, "k": args.k,
                  "p_in": p_in, "p_out": p_out}
    elif args.model == "geometric":
        from .generators import GeometricGraphSpec, gen_geometric

        g, coords = gen_geometric(
            GeometricGraphSpec(args.domain, args.n, args.gamma), args.seed)
        params = {"model": "geometric", "domain": args.domain, "n": args.n,
                  "gamma": args.gamma}
    elif args.model == "complete":
        import numpy as np

        from .graphs import make_digraph

        g = make_digraph(1.0 - np.eye(args.n))
    else:
        from .generators import gen_random_strongly_connected

        g = gen_random_strongly_connected(args.n, seed=args.seed)
    return g, params, truth, coords


def cmd_generate(args) -> int:
    from .files import write_column_csv, write_edge_csv, write_meta

    started = time.time()
    g, params, truth, coords = _model(args)
    write_edge_csv(args.out, g)
    write_meta(args.out, "generate", params, seed=args.seed, started=started)
    if truth is not None and args.truth:
        write_column_csv(args.truth, g.labels, {"community": [int(t) for t in truth]})
    if coords is not None and args.coords:
        cols = {ax: coords[:, a] for a, ax in zip(range(coords.shape[1]), "xyz")}
        write_column_csv(args.coords, g.labels, cols)
    return 0


def _distance_matrix(tm, which):
    import numpy as np

    from .hitting import hitting_fast
    from .metric import hp_distance, hp_similarity
    from .stationary import stationary_distribution

    if which == "A":
        return np.asarray(tm.P)
    phi = stationary_distribution(tm)
    beta = 0.5 if which == "d12" else 1.0
    return hp_distance(hp_similarity(hitting_fast(tm), phi, beta)).D


def cmd_cluster(args) -> int:
    from .clustering import empirical_p_value, kmeans, kmedoids, pca_embed, purity_accuracy

    tm = _load_chain(args)
    if args.method == "kmedoids-d12":
        D = _distance_matrix(tm, "d12")
        labels = kmedoids(D, args.k, restarts=args.restarts, seed=args.seed)
    else:
        which = "d12" if args.method == "pca-kmeans-d12" else "A"
        M = _distance_matrix(tm, which)
        coords, _ = pca_embed(M, max(1, args.k - 1))
        labels = kmeans(coords, args.k, restarts=args.restarts, seed=args.seed)
    out = {
        "method": args.method,
        "k": args.k,
        "seed": args.seed,
        "labels": {lab: int(c) for lab, c in zip(tm.labels, labels)},
        "accuracy": None,
        "p_value": None,
    }
    if args.truth:
        truth = _read_truth(args.truth, tm.labels)
        acc = purity_accuracy(labels, truth)
        out["accuracy"] = acc
        out["p_value"] = empirical_p_value(acc, tm.n, args.k, trials=args.trials,
                                           seed=args.seed)
    print(json.dumps(out))
    return 0


def _read_truth(path, labels):
    from .errors import InputError

    by_label = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("label,"):
                continue
            lab, _, val = line.rpartition(",")
            by_label[lab] = int(val)
    missing = [l for l in labels if l not in by_label]
    if missing:
        raise InputError(f"truth file missing labels, e.g. {missing[0]!r}")
    return [by_label[l] for l in labels]


def cmd_embed(args) -> int:
    from .clustering import pca_embed
    from .files import write_column_csv, write_meta

    started = time.time()
    tm = _load_chain(args)
    M = _distance_matrix(tm, args.matrix)
    coords, ratios = pca_embed(M, args.dims)
    cols = {f"pc{c + 1}": coords[:, c] for c in range(args.dims)}
    write_column_csv(args.out, tm.labels, cols)
    write_meta(args.out, "embed",
               {"input": args.input, "matrix": args.matrix, "dims": args.dims,
                "explained_variance": [float(r) for r in ratios]},
               started=started)
    return 0


def cmd_verify(args) -> int:
    from .errors import InputError
    from .verify import run_levels

    try:
        betas = tuple(float(b) for b in args.beta.split(","))
    except ValueError:
        raise InputError(f"--beta must be comma-separated numbers, got {args.beta!r}") from None
    tm = _load_chain(args)
    levels = [l.strip() for l in args.levels.split(",") if l.strip()]
    report = run_levels(tm, levels, walks=args.walks, seed=args.seed, betas=betas,
                        tol_deg=args.tol_deg)
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hpmetric",
        description="Hitting-probability metrics on directed graphs and Markov chains",
    )
    ap.add_argument("--threads", type=int, default=None,
                    help="BLAS thread count (default: HPMETRIC_THREADS or all cores)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stationary", help="invariant distribution as CSV label,phi")
    _add_input_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stationary)

    p = sub.add_parser("hitprob", help="hitting probability matrix or MC estimate")
    _add_input_flags(p)
    p.add_argument("--reference", action="store_true")
    p.add_argument("--out", help="dense CSV output (row = source)")
    p.add_argument("--mc", nargs=2, metavar=("I", "J"),
                   help="simulate hit-before-return for labels I J")
    p.add_argument("--walks", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_hitprob)

    p = sub.add_parser("metric", help="distance matrix d^beta")
    _add_input_flags(p)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--similarity", help="also write the similarity matrix")
    p.add_argument("--tol-deg", type=float, default=1e-9, dest="tol_deg")
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("quotient", help="collapse zero-distance classes")
    _add_input_flags(p)
    p.add_argument("--out", required=True, help="quotient chain as edge list")
    p.add_argument("--map", required=True, help="node,class CSV")
    p.add_argument("--tol-deg", type=float, default=1e-9, dest="tol_deg")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("symmetrize", help="symmetric operator for a chain")
    _add_input_flags(p)
    p.add_argument("--method", choices=("additive", "max", "chung", "hp"), required=True)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_symmetrize)

    p = sub.add_parser("fiedler", help="Fiedler vector of a symmetrized Laplacian")
    _add_input_flags(p)
    p.add_argument("--method", choices=("additive", "max", "chung", "hp"), required=True)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fiedler)

    p = sub.add_parser("generate", help="synthetic graph families")
    p.add_argument("--model", choices=("glued", "er-cycle", "planted", "geometric"),
                   required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--truth", help="write truth labels (planted model)")
    p.add_argument("--coords", help="write coordinates (geometric model)")
    _add_model_flags(p, n_default=300)
    p.add_argument("--self-loops", action="store_true", dest="self_loops")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--p-in", type=float, default=None, dest="p_in")
    p.add_argument("--p-out", type=float, default=None, dest="p_out")
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--domain", default="circle")
    p.add_argument("--gamma", type=float, default=1.0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("cluster", help="cluster a chain and score against truth")
    _add_input_flags(p)
    p.add_argument("--method",
                   choices=("kmedoids-d12", "pca-kmeans-d12", "pca-kmeans-A"),
                   required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--truth")
    p.add_argument("--trials", type=int, default=4000,
                   help="random labelings for the empirical p-value")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("embed", help="PCA embedding of a distance or adjacency matrix")
    _add_input_flags(p)
    p.add_argument("--matrix", choices=("d12", "d1", "A"), required=True)
    p.add_argument("--dims", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("verify", help="run invariant suites; exit 1 on violation")
    _add_input_flags(p, required=False)
    p.add_argument("--model", choices=("glued", "er-cycle", "complete", "random"))
    _add_model_flags(p, n_default=50)
    p.add_argument("--levels", default="identity,metric")
    p.add_argument("--walks", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--beta", default="0.5,0.75,1.0")
    p.add_argument("--tol-deg", type=float, default=1e-9, dest="tol_deg")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _configure_threads(args.threads)
    from .errors import InputError, NumericalError, StructureError

    try:
        if args.command == "verify" and not args.input and not args.model:
            print("verify needs --in or --model", file=sys.stderr)
            return 2
        return args.func(args)
    except (InputError, StructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
