"""Executable invariant suites bundling the library's proved properties.

Levels: 'identity' (balance, submultiplicativity, fast/reference agreement),
'metric' (axioms per beta), 'quotient' (degeneracy collapse and distance
bounds), 'oracle' (Monte Carlo agreement with the exact solver).  Each check
reports its observed value, tolerance, and pass flag.

Nothing is sampled.  Submultiplicativity and the triangle inequality are
checked on every triple at every n, each by one certified sweep
(``certified_pivot_maxima``): a GEMM bounds each row's worst slack, and only
the rows that bound cannot clear are swept exactly, with the same result as
sweeping all of them.  The triangle sweep serves every beta.  Every entry of
the fast Q is compared with the state-reduction Q of ``hitting_by_reduction``,
which shares no step with the fast path and costs O(n^3); ``used_reference``
flags a fast Q made by it, which is not compared with itself.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .graphs import ROW_SUM_TOL, TransitionMatrix
from .hitting import (hitting_by_reduction, hitting_fast, simulate_hit_before_return,
                      simulate_visit_counts)
from .metric import (axiom_report, certified_pivot_maxima, degenerate_pairs, hp_distance,
                     hp_similarity, repeated_index_slack)
from .quotient import check_quotient_bounds, quotient_from_report, segments
from .rng import stream
from .stationary import RESIDUAL_TOL, stationary_distribution

LEVELS = ("identity", "metric", "quotient", "oracle")

BALANCE_TOL = 1e-10
SUBMULT_TOL = 1e-10
FAST_REF_TOL = 1e-8
SYMMETRY_TOL = 1e-10
TRIANGLE_TOL = 1e-9
QUOTIENT_TOL = 1e-9

# Absolute guard added to 4-sigma Monte Carlo bands: the exact solver itself
# only carries ~1e-10 accuracy, so deterministic pairs (SE = 0) must not fail
# on representation noise.
MC_GUARD = 1e-9

# Node pairs level_oracle simulates: hit probabilities for all of them,
# visit counts for the first half.
ORACLE_PAIRS = 6


def _check(value, tol, ok=None):
    if ok is None:
        ok = bool(value <= tol)
    return {"value": float(value), "tolerance": tol, "ok": bool(ok)}


def submultiplicativity_slack(Q: np.ndarray) -> float:
    """Worst violation of Q[i,j] >= Q[i,k] Q[k,j] over distinct triples."""
    return float(certified_pivot_maxima(Q, np.multiply).max())


def level_identity(tm: TransitionMatrix) -> dict:
    phi = stationary_distribution(tm)
    hp = hitting_fast(tm)
    Q = hp.Q
    balance = np.abs(Q * phi.phi[:, None] - Q.T * phi.phi[None, :]).max()
    submult = submultiplicativity_slack(Q)
    ref_err = 0.0
    if not hp.used_reference:  # else Q is the reduction's own
        ref = hitting_by_reduction(tm)
        ref -= Q
        ref_err = np.abs(ref, out=ref).max()
    return {
        "row_sums": _check(np.abs(tm.P.sum(axis=1) - 1.0).max(), ROW_SUM_TOL),
        "stationary_residual": _check(np.abs(tm.P.T @ phi.phi - phi.phi).max(), RESIDUAL_TOL),
        "detailed_balance": _check(balance, BALANCE_TOL),
        "submultiplicativity": _check(submult, SUBMULT_TOL),
        "fast_vs_reference": _check(ref_err, FAST_REF_TOL),
        "used_reference": hp.used_reference,
    }


def level_metric(tm: TransitionMatrix, betas=(0.5, 0.75, 1.0)) -> dict:
    phi = stationary_distribution(tm)
    Q = hitting_fast(tm)
    log_phi = np.log(phi.phi)
    out, w = {}, None
    for beta in sorted(betas):
        D = hp_distance(hp_similarity(Q, phi, beta)).D
        if w is None:
            # The slack of d_beta at (i, k, j) is that of d_beta0 plus
            # 2 (beta - beta0) log phi_k, which lies below it for beta > beta0:
            # one sweep at the smallest beta serves every beta, over the rows
            # that the certificate of some beta leaves.
            beta0 = beta
            w = certified_pivot_maxima(-D, np.add, [2.0 * (b - beta0) * log_phi
                                                    for b in sorted(set(betas))])
        pivots = float((w + 2.0 * (beta - beta0) * log_phi).max())
        worst = axiom_report(D, max(pivots, repeated_index_slack(D)),
                             TRIANGLE_TOL)["worst_violations"]
        checks = {
            "symmetry": _check(worst["symmetry"], SYMMETRY_TOL),
            "triangle": _check(worst["triangle"], TRIANGLE_TOL),
        }
        if beta > 0.5:
            checks["positivity"] = _check(
                worst["min_off_diagonal"], 0.0, ok=worst["min_off_diagonal"] > 0.0
            )
        out[beta] = checks
    return {f"beta={beta:g}": out[beta] for beta in betas}


def level_quotient(tm: TransitionMatrix) -> dict:
    phi = stationary_distribution(tm)
    Q = hitting_fast(tm)
    dist = hp_distance(hp_similarity(Q, phi, 0.5))
    report = degenerate_pairs(Q, phi)
    qc = quotient_from_report(tm, phi, report)
    phi_p = stationary_distribution(qc.chain)
    Q_p = hitting_fast(qc.chain)
    dist_p = hp_distance(hp_similarity(Q_p, phi_p, 0.5))

    phi_err = float(np.abs(phi_p.phi - qc.phi_prime).max())
    rep_p = degenerate_pairs(Q_p, phi_p)
    labelings = [segments(tm, cls) for cls in qc.orders]
    bounds = check_quotient_bounds(dist, dist_p, qc, labelings, tol=QUOTIENT_TOL)
    return {
        "n_classes": len(report.classes),
        "degenerate": report.degenerate,
        "quotient_phi_consistency": _check(phi_err, 1e-10),
        "quotient_degeneracy_free": {"value": rep_p.degenerate, "ok": not rep_p.degenerate},
        "bounds": {
            "pairs_checked": bounds["pairs_checked"],
            "same_segment_pairs": bounds["same_segment_pairs"],
            "max_isometry_error": bounds["max_isometry_error"],
            "violations": len(bounds["violations"]),
            "ok": bounds["ok"],
        },
    }


def _oracle_pairs(n: int, pairs: int, rng) -> list:
    """``pairs`` distinct ordered pairs i != j drawn by ``rng``, or all of them
    when there are no more.  Pair number k, in row-major order of the
    n(n - 1) off-diagonal pairs, is i = k // (n - 1), j = r + (r >= i) with
    r = k % (n - 1).
    """
    total = n * (n - 1)
    ks = rng.choice(total, size=pairs, replace=False) if total > pairs else np.arange(total)
    i, r = np.divmod(ks, n - 1)
    return list(zip(i.tolist(), (r + (r >= i)).tolist()))


def level_oracle(tm: TransitionMatrix, walks: int = 20000, seed: int = 0) -> dict:
    phi = stationary_distribution(tm)
    Q = hitting_fast(tm).Q
    tested = _oracle_pairs(tm.n, ORACLE_PAIRS, stream(seed, 2**32))
    hit_checks = []
    for t, (i, j) in enumerate(tested):
        q_hat, se = simulate_hit_before_return(tm, i, j, walks, seed + t)
        err = abs(q_hat - Q[i, j])
        hit_checks.append({
            "pair": [tm.labels[i], tm.labels[j]],
            "estimate": q_hat, "exact": float(Q[i, j]), "se": se,
            "ok": bool(err <= 4.0 * se + MC_GUARD),
        })
    visit_checks = []
    for t, (i, j) in enumerate(tested[: max(1, ORACLE_PAIRS // 2)]):
        mean, se = simulate_visit_counts(tm, i, j, walks, seed + 1000 + t)
        target = float(phi.phi[j] / phi.phi[i])
        visit_checks.append({
            "pair": [tm.labels[i], tm.labels[j]],
            "mean": mean, "expected": target, "se": se,
            "ok": abs(mean - target) <= 4.0 * se + MC_GUARD,
        })
    frac = np.mean([c["ok"] for c in hit_checks + visit_checks])
    return {
        "walks": walks,
        "seed": seed,
        "hit_probability": hit_checks,
        "visit_counts": visit_checks,
        "pass_fraction": _check(1.0 - frac, 0.01),
    }


def _collect_ok(node) -> bool:
    if isinstance(node, dict):
        if "ok" in node and not isinstance(node["ok"], dict):
            if not node["ok"]:
                return False
        return all(_collect_ok(v) for v in node.values())
    if isinstance(node, list):
        return all(_collect_ok(v) for v in node)
    return True


def run_levels(tm: TransitionMatrix, levels, walks: int = 20000, seed: int = 0,
               betas=(0.5, 0.75, 1.0)) -> dict:
    run = {"identity": lambda: level_identity(tm),
           "metric": lambda: level_metric(tm, betas),
           "quotient": lambda: level_quotient(tm),
           "oracle": lambda: level_oracle(tm, walks=walks, seed=seed)}
    if not levels or not set(levels) <= run.keys():
        raise InputError(f"verification levels must be some of {', '.join(LEVELS)}, "
                         f"got {list(levels)}")
    report = {"n": tm.n, "levels": {level: run[level]() for level in levels}}
    report["ok"] = _collect_ok(report["levels"])
    return report
