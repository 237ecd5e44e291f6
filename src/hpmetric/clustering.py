"""PCA embedding, k-means, k-medoids, purity scoring and empirical p-values.

The clustering routines are deliberately self-contained and seed-driven so
identical seeds reproduce identical labels on any platform.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InputError
from .rng import stream


def pca_embed(M: np.ndarray, dims: int):
    """Principal components of the rows of M.

    Columns are mean-centered and the SVD taken; each component's sign is
    fixed so its largest-magnitude loading is positive.  Returns the
    coordinates (n x dims) and the explained-variance ratios.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if dims > n:
        raise InputError("dims cannot exceed the number of rows")
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
    if k > n:
        raise InputError(f"k={k} exceeds n={n}")
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
    if k > n:
        raise InputError(f"k={k} exceeds n={n}")
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


def purity_accuracy(labels, truth) -> float:
    """Best label-permutation agreement between a clustering and the truth."""
    labels = np.asarray(labels)
    truth = np.asarray(truth)
    if labels.shape != truth.shape:
        raise InputError("labels and truth must have the same length")
    pred_ids = np.unique(labels)
    true_ids = np.unique(truth)
    k = max(pred_ids.size, true_ids.size)
    if k > 8:
        raise InputError("purity matching is limited to k <= 8 labels")
    conf = np.zeros((k, k))
    pred_pos = {v: i for i, v in enumerate(pred_ids)}
    true_pos = {v: i for i, v in enumerate(true_ids)}
    for a, b in zip(labels, truth):
        conf[pred_pos[a], true_pos[b]] += 1
    rows, cols = linear_sum_assignment(-conf)
    return float(conf[rows, cols].sum() / labels.size)


def empirical_p_value(accuracy: float, n: int, k: int, trials: int = 4000,
                      seed: int = 0) -> float:
    """Tail probability of the observed purity under uniform random labels.

    Draws ``trials`` labelings with each node's community uniform on [k],
    scores each against a balanced truth, and applies the add-one correction
    so the result is never exactly zero.
    """
    if trials < 1:
        raise InputError("need at least one trial")
    size = n // k
    truth = np.repeat(np.arange(k), size)
    if truth.size < n:
        truth = np.concatenate([truth, np.arange(n - truth.size) % k])
    rng = stream(seed, 0)
    at_least = 0
    for _ in range(trials):
        random_labels = rng.integers(0, k, size=n)
        if purity_accuracy(random_labels, truth) >= accuracy:
            at_least += 1
    return (at_least + 1) / (trials + 1)

