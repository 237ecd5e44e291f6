"""PCA embedding, k-means, k-medoids, purity scoring and empirical p-values.

The clustering routines are deliberately self-contained and seed-driven so
identical seeds reproduce identical labels on any platform.
"""

from __future__ import annotations

import warnings
from functools import cache

import numpy as np

from .errors import InputError
from .rng import stream


def pca_embed(M: np.ndarray, dims: int):
    """Principal components of the rows of M.

    Columns are mean-centered and the SVD taken; each component's sign is
    fixed so its largest-magnitude loading is positive.  Returns the
    coordinates (n x dims) and the explained-variance ratios.  Warns when two
    adjacent singular values above the rank cutoff, among the kept ones and
    the first dropped one, are within n u S_1 (u = 2^-53): the coordinates
    are then an arbitrary rotation within the tied components' span.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if not 1 <= dims <= n:
        raise InputError(f"dims={dims} must lie between 1 and the number of rows, {n}")
    X = M - M.mean(axis=0, keepdims=True)
    U, S, Vt = np.linalg.svd(X, full_matrices=False)
    for c in range(S.shape[0]):
        lead = np.argmax(np.abs(Vt[c]))
        if Vt[c, lead] < 0:
            Vt[c] = -Vt[c]
            U[:, c] = -U[:, c]
    rank = int((S > S[0] * 1e-12).sum()) if S.size and S[0] > 0 else 0
    if dims > rank:
        warnings.warn(
            f"requested {dims} components but rank is {rank}; the rest are zero",
            RuntimeWarning,
            stacklevel=2,
        )
    top = S[:min(dims + 1, rank)]
    if np.any(top[:-1] - top[1:] < n * np.finfo(float).eps / 2 * S[0]):
        warnings.warn("adjacent principal components nearly tie; the coordinates "
                      "may be rotated within their span", RuntimeWarning, stacklevel=2)
    coords = np.zeros((n, dims))
    keep = min(dims, rank)
    coords[:, :keep] = U[:, :keep] * S[:keep]
    total = float((S**2).sum())
    ratios = (S[:dims] ** 2 / total) if total > 0 else np.zeros(min(dims, S.size))
    ratios = np.pad(ratios, (0, dims - ratios.shape[0]))
    return coords, ratios


def _assign_to_medoids(D, medoids):
    return np.argmin(D[:, medoids], axis=1)


def kmedoids(D: np.ndarray, k: int, restarts: int = 5, seed: int = 0) -> np.ndarray:
    """PAM-style alternation on a precomputed distance matrix.

    Assign each point to its nearest medoid, move each medoid to the member
    minimizing total within-cluster distance, repeat to convergence; keep
    the best of ``restarts`` random initializations by total cost.
    """
    D = np.asarray(D, dtype=float)
    n = D.shape[0]
    if not (1 <= k <= n and restarts >= 1):
        raise InputError(f"need 1 <= k <= n={n} and restarts >= 1, got k={k}, restarts={restarts}")
    best_labels = None
    best_cost = np.inf
    for r in range(restarts):
        rng = stream(seed, r)
        medoids = rng.choice(n, size=k, replace=False)
        for _ in range(200):
            labels = _assign_to_medoids(D, medoids)
            new_medoids = medoids.copy()
            for c in range(k):
                members = np.nonzero(labels == c)[0]
                if members.size == 0:
                    # Reseed an empty cluster from the point farthest from
                    # its current medoid.
                    far = np.argmax(D[np.arange(n), medoids[labels]])
                    new_medoids[c] = far
                    continue
                costs = D[np.ix_(members, members)].sum(axis=0)
                new_medoids[c] = members[np.argmin(costs)]
            if np.array_equal(np.sort(new_medoids), np.sort(medoids)):
                break
            medoids = new_medoids
        labels = _assign_to_medoids(D, medoids)
        cost = float(D[np.arange(n), medoids[labels]].sum())
        if cost < best_cost:
            best_cost = cost
            best_labels = labels
    return best_labels


def _kmeanspp_init(X, k, rng):
    n = X.shape[0]
    centers = [X[rng.integers(n)]]
    for _ in range(1, k):
        d2 = np.min(
            ((X[:, None, :] - np.array(centers)[None, :, :]) ** 2).sum(axis=2), axis=1
        )
        total = d2.sum()
        if total <= 0:
            centers.append(X[rng.integers(n)])
            continue
        probs = d2 / total
        centers.append(X[rng.choice(n, p=probs)])
    return np.array(centers)


def kmeans(points: np.ndarray, k: int, restarts: int = 5, seed: int = 0) -> np.ndarray:
    """Lloyd iteration with k-means++ seeding, best of ``restarts`` by inertia.

    Empty clusters are repaired by reseeding from the point farthest from
    its assigned center.
    """
    X = np.asarray(points, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n = X.shape[0]
    if not (1 <= k <= n and restarts >= 1):
        raise InputError(f"need 1 <= k <= n={n} and restarts >= 1, got k={k}, restarts={restarts}")
    if not np.all(np.isfinite(X)):
        raise InputError("coordinates must be finite")
    best_labels = None
    best_inertia = np.inf
    for r in range(restarts):
        rng = stream(seed, r)
        centers = _kmeanspp_init(X, k, rng)
        labels = None
        for _ in range(300):
            d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = np.argmin(d2, axis=1)
            taken = []
            for c in range(k):
                if not (new_labels == c).any():
                    # reseed from the farthest point not already used as repair
                    gaps = d2[np.arange(n), new_labels].copy()
                    gaps[taken] = -np.inf
                    far = int(np.argmax(gaps))
                    new_labels[far] = c
                    taken.append(far)
            if labels is not None and np.array_equal(labels, new_labels):
                break
            labels = new_labels
            for c in range(k):
                centers[c] = X[labels == c].mean(axis=0)
        d2 = ((X - centers[labels]) ** 2).sum(axis=1)
        inertia = float(d2.sum())
        if inertia < best_inertia:
            best_inertia = inertia
            best_labels = labels
    return best_labels


@cache
def _layers(k: int) -> list:
    """For each row r of a k x k matching, a k x C(k, r+1) table: entry (c, i)
    is the position of the i-th column set of size r+1, without c, among the
    sets of size r, or the sentinel slot after them when c is not in the set.
    Sets of one size are in increasing order of their bitmasks."""
    layers, sets = [], [0]
    for size in range(1, k + 1):
        position = {s: i for i, s in enumerate(sets)}
        sets = [s for s in range(1 << k) if s.bit_count() == size]
        layers.append(np.array([[position.get(s ^ (1 << c), len(position))
                                 for s in sets] for c in range(k)]))
    return layers


def _max_agreement(conf: np.ndarray) -> np.ndarray:
    """Most agreement over one-to-one row-to-column matchings, for a stack
    (..., k, k) of integer confusion counts.

    Held-Karp dynamic programming over column subsets: best[S] is the most
    agreement from rows 0..|S|-1 matched onto the columns in S, so row r
    costs k steps over the C(k, r+1) sets of its layer, k 2^k in all.  Only
    the previous layer is kept.
    """
    k = conf.shape[-1]
    never = np.full((1,) + conf.shape[:-2], -(2**62), dtype=np.int64)
    best = np.zeros_like(never)  # the empty column set
    for r, prev in enumerate(_layers(k)):
        best = np.concatenate([best, never])  # the sentinel slot: never the maximum
        layer = best[prev[0]] + conf[..., r, 0]
        for c in range(1, k):
            np.maximum(layer, best[prev[c]] + conf[..., r, c], out=layer)
        best = layer
    return best[0]


def purity_accuracy(labels, truth) -> float:
    """Best label-permutation agreement between a clustering and the truth."""
    labels = np.asarray(labels)
    truth = np.asarray(truth)
    if labels.shape != truth.shape:
        raise InputError("labels and truth must have the same length")
    if labels.size == 0:
        raise InputError("purity needs at least one labelled node")
    pred_ids, li = np.unique(labels, return_inverse=True)
    true_ids, ti = np.unique(truth, return_inverse=True)
    k = max(pred_ids.size, true_ids.size)
    if k > 8:
        raise InputError("purity matching is limited to k <= 8 labels")
    conf = np.bincount(li * k + ti, minlength=k * k).reshape(k, k)
    return float(_max_agreement(conf) / labels.size)


def empirical_p_value(accuracy: float, n: int, k: int, trials: int = 4000,
                      seed: int = 0) -> float:
    """Tail probability of the observed purity under uniform random labels.

    Draws ``trials`` labelings with each node's community uniform on [k],
    scores each against a balanced truth, and applies the add-one correction
    so the result is never exactly zero.  Each draw is reduced to its k x k
    confusion counts at once, and all of them are matched in one pass.
    """
    if trials < 1:
        raise InputError("need at least one trial")
    if not 1 <= k <= 8:
        raise InputError(f"p-value needs 1 <= k <= 8 communities, got k={k}")
    if n < 1:
        raise InputError(f"p-value needs at least one node, got n={n}")
    truth = np.concatenate([np.repeat(np.arange(k), n // k), np.arange(n % k)])
    rng = stream(seed, 0)
    conf = np.empty((trials, k * k), dtype=np.int64)
    for t in range(trials):
        conf[t] = np.bincount(rng.integers(0, k, size=n) * k + truth, minlength=k * k)
    purity = _max_agreement(conf.reshape(trials, k, k)) / n
    return (int(np.count_nonzero(purity >= accuracy)) + 1) / (trials + 1)
