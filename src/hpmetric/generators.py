"""Synthetic graph families used in the experiments.

Glued cycles (a directed backbone chain branching into parallel chains that
close the loop), a directed Erdos-Renyi block coupled to a directed cycle,
the directed planted-partition model, and geometric graphs with Gaussian
kernel weights on several domains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graphs import WeightedDigraph, make_digraph, strongly_connected_components
from .rng import stream


# Redraws before gen_er_cycle and gen_random_strongly_connected give up.
ER_CYCLE_ATTEMPTS = 100
RANDOM_SC_ATTEMPTS = 200


@dataclass(frozen=True)
class GluedCyclesSpec:
    n_b: int  # backbone length
    n_c: int  # branch length
    C: int    # branch count

    def __post_init__(self):
        if self.n_b < 1 or self.n_c < 1 or self.C < 1:
            raise InputError("glued cycles require n_b, n_c, C >= 1")


@dataclass(frozen=True)
class PlantedPartitionSpec:
    n: int
    k: int
    p_in: float
    p_out: float

    def __post_init__(self):
        if not (0.0 <= self.p_out < self.p_in <= 1.0):
            raise InputError("need 0 <= p_out < p_in <= 1")
        if self.n % self.k:
            raise InputError("n must be divisible by k (balanced communities)")


GEOMETRIC_DOMAINS = (
    "flat-torus", "torus-with-hole", "H-domain", "circle", "sphere", "torus-lattice",
)


@dataclass(frozen=True)
class GeometricGraphSpec:
    domain: str
    n: int
    gamma: float = 1.0

    def __post_init__(self):
        if self.domain not in GEOMETRIC_DOMAINS:
            raise InputError(f"unknown domain {self.domain!r}")
        if self.gamma <= 0:
            raise InputError("gamma must be positive")


def gen_glued_cycles(spec: GluedCyclesSpec) -> WeightedDigraph:
    """Backbone chain b1 -> ... -> b_nb branching into C chains of length n_c,
    each closing back to b1.  Unit weights."""
    n_b, n_c, C = spec.n_b, spec.n_c, spec.C
    n = n_b + C * n_c
    labels = [f"b{t + 1}" for t in range(n_b)]
    for m in range(C):
        labels += [f"c{m + 1}_{s + 1}" for s in range(n_c)]
    W = np.zeros((n, n))
    for t in range(n_b - 1):
        W[t, t + 1] = 1.0
    for m in range(C):
        base = n_b + m * n_c
        W[n_b - 1, base] = 1.0
        for s in range(n_c - 1):
            W[base + s, base + s + 1] = 1.0
        W[base + n_c - 1, 0] = 1.0
    return make_digraph(W, labels)


def glued_cycles_stationary(spec: GluedCyclesSpec) -> np.ndarray:
    """Closed form: 1/(n_b + n_c) per backbone node, 1/(C (n_b + n_c)) per
    branch node."""
    n_b, n_c, C = spec.n_b, spec.n_c, spec.C
    phi = np.empty(n_b + C * n_c)
    phi[:n_b] = 1.0 / (n_b + n_c)
    phi[n_b:] = 1.0 / (C * (n_b + n_c))
    return phi


def gen_er_cycle(n_er: int, n_cycle: int, p: float, w: float, seed: int,
                 self_loops: bool = False) -> WeightedDigraph:
    """Directed ER block coupled to a directed cycle.

    Each cycle node receives 2*round(n_er*p) - 1 in-edges of weight ``w``
    from ER nodes drawn with replacement (multi-edges merge to a single
    weight-w edge).  A bridge then joins the first cycle node to the first
    ER node: a unit edge cy0 -> er0, which is the cycle's only exit, and a
    unit edge er0 -> cy0 added to any weight already there, so er0 -> cy0
    weighs w + 1 when er0 was drawn as a source of cy0.  Regenerates with
    an incremented seed until strongly connected.
    """
    if n_er < 1 or n_cycle < 1 or not 0.0 < p <= 1.0 or w <= 0:
        raise InputError("need n_er, n_cycle >= 1, p in (0, 1], w > 0")
    n = n_er + n_cycle
    in_edges = 2 * round(n_er * p) - 1
    for attempt in range(ER_CYCLE_ATTEMPTS):
        rng = stream(seed + attempt, 0)
        W = np.zeros((n, n))
        block = (rng.random((n_er, n_er)) < p).astype(float)
        if not self_loops:
            np.fill_diagonal(block, 0.0)
        W[:n_er, :n_er] = block
        for c in range(n_cycle):
            node = n_er + c
            W[node, n_er + (c + 1) % n_cycle] = 1.0
            sources = rng.integers(0, n_er, size=in_edges)
            W[sources, node] = w
        W[n_er, 0] += 1.0
        W[0, n_er] += 1.0
        if len(strongly_connected_components(W)) == 1:
            labels = [f"er{i}" for i in range(n_er)] + [f"cy{c}" for c in range(n_cycle)]
            return make_digraph(W, labels)
    raise InputError(
        f"no strongly connected graph after {ER_CYCLE_ATTEMPTS} attempts"
    )


def gen_planted_partition(spec: PlantedPartitionSpec, seed: int):
    """Directed planted partition: unit edge i -> j with probability p_in
    inside a community and p_out across, no self-loops, no connectivity
    retry (callers must check).  Returns the graph and the truth labels."""
    n, k = spec.n, spec.k
    size = n // k
    truth = np.repeat(np.arange(k), size)
    rng = stream(seed, 0)
    same = truth[:, None] == truth[None, :]
    prob = np.where(same, spec.p_in, spec.p_out)
    W = (rng.random((n, n)) < prob).astype(float)
    np.fill_diagonal(W, 0.0)
    return make_digraph(W), truth


def gen_random_strongly_connected(n: int, p: float = None, seed: int = 0) -> WeightedDigraph:
    """Directed ER graph with weights uniform on (0, 1], redrawn until
    strongly connected.

    Default edge probability scales as max(0.5, 2 ln n / n) clipped to 1, so
    connectivity holds with high probability at every size.
    """
    if p is None:
        p = min(1.0, max(0.5 if n < 10 else 0.0, 2.0 * np.log(max(n, 2)) / n))
    for attempt in range(RANDOM_SC_ATTEMPTS):
        rng = stream(seed + 7919 * attempt, 1)
        mask = rng.random((n, n)) < p
        np.fill_diagonal(mask, False)
        W = np.where(mask, 1.0 - rng.random((n, n)), 0.0)
        if len(strongly_connected_components(W)) == 1:
            return make_digraph(W)
    raise InputError(f"no strongly connected draw after {RANDOM_SC_ATTEMPTS} attempts")


def _sample_points(domain: str, n: int, rng) -> np.ndarray:
    two_pi = 2.0 * np.pi
    if domain == "flat-torus":
        return rng.random((n, 2)) * two_pi
    if domain == "torus-with-hole":
        pts = []
        center = np.array([np.pi, np.pi])
        while len(pts) < n:
            cand = rng.random((2 * n, 2)) * two_pi
            keep = np.linalg.norm(cand - center, axis=1) >= np.pi / 2.0
            pts.extend(cand[keep])
        return np.array(pts[:n])
    if domain == "H-domain":
        pts = []
        while len(pts) < n:
            cand = rng.random((2 * n, 2)) * two_pi
            in_legs = np.abs(cand[:, 0] - np.pi) >= np.pi / 2.0
            in_bar = np.abs(cand[:, 1] - np.pi) <= np.pi / 4.0
            pts.extend(cand[in_legs | in_bar])
        return np.array(pts[:n])
    if domain == "circle":
        theta = rng.random(n) * two_pi
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if domain == "sphere":
        g = rng.standard_normal((n, 3))
        return g / np.linalg.norm(g, axis=1, keepdims=True)
    raise InputError(f"domain {domain!r} is not sampled")


def _pairwise_sq_dist(points: np.ndarray, periodic: bool) -> np.ndarray:
    if periodic:
        two_pi = 2.0 * np.pi
        d2 = np.zeros((points.shape[0],) * 2)
        for axis in range(points.shape[1]):
            diff = np.abs(points[:, axis][:, None] - points[:, axis][None, :])
            diff = np.minimum(diff, two_pi - diff)
            d2 += diff**2
        return d2
    diff = points[:, None, :] - points[None, :, :]
    return (diff**2).sum(axis=2)


def gen_geometric(spec: GeometricGraphSpec, seed: int):
    """Sample points on the domain and weight edges by exp(-gamma * d^2).

    Point clouds give complete weighted graphs (chordal distance for circle
    and sphere, periodic displacement on flat tori, straight Euclidean on
    the H domain).  The torus lattice is a regular grid with unit weights on
    the four nearest neighbors only.  Returns (graph, coordinates).
    """
    if spec.domain == "torus-lattice":
        side = round(np.sqrt(spec.n))
        if side * side != spec.n:
            raise InputError("torus-lattice needs a square number of points")
        two_pi = 2.0 * np.pi
        coords = np.array([
            (i * two_pi / side, j * two_pi / side)
            for i in range(side) for j in range(side)
        ])
        W = np.zeros((spec.n, spec.n))
        for i in range(side):
            for j in range(side):
                a = i * side + j
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    b = ((i + di) % side) * side + (j + dj) % side
                    W[a, b] = 1.0
        return make_digraph(W), coords

    rng = stream(seed, 0)
    pts = _sample_points(spec.domain, spec.n, rng)
    periodic = spec.domain in ("flat-torus", "torus-with-hole")
    d2 = _pairwise_sq_dist(pts, periodic)
    W = np.exp(-spec.gamma * d2)
    np.fill_diagonal(W, 0.0)
    return make_digraph(W), pts
