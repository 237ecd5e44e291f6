"""Independent oracles used to freeze expected values.

These deliberately avoid the code paths they check: hitting probabilities
come from an absorbing-state first-passage solve rather than the inverse
ratio formula, and clustering optima come from enumeration.
"""

import itertools
from fractions import Fraction

import numpy as np


def oracle_hitting_probability(P: np.ndarray, i: int, j: int) -> float:
    """P_i(reach j before returning to i) by first-step analysis.

    For x outside {i, j} let h[x] be the probability of reaching j before i
    starting from x; h solves (I - R) h = P[rest, j] with R the transition
    block among the remaining states.  Then Q[i, j] = P[i, j] + sum_x
    P[i, x] h[x].
    """
    n = P.shape[0]
    rest = [x for x in range(n) if x not in (i, j)]
    if rest:
        R = P[np.ix_(rest, rest)]
        b = P[rest, j]
        h = np.linalg.solve(np.eye(len(rest)) - R, b)
    else:
        h = np.zeros(0)
    return float(P[i, j] + P[i, rest] @ h)


def oracle_hitting_matrix(P: np.ndarray) -> np.ndarray:
    n = P.shape[0]
    Q = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                Q[i, j] = oracle_hitting_probability(P, i, j)
    return Q


def _solve_exact(A, b) -> list:
    """Solve A x = b by Gauss-Jordan elimination over the rationals."""
    m = len(b)
    rows = [list(A[r]) + [b[r]] for r in range(m)]
    for c in range(m):
        p = next(r for r in range(c, m) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(m):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[m] for row in rows]


def exact_hitting_matrix(P: np.ndarray) -> np.ndarray:
    """Q by the absorbing-state solve of oracle_hitting_probability, in exact
    rational arithmetic (n <= 8).

    Each float entry of P is taken at its exact binary value, so the result
    is the true Q of the chain the float kernels receive, correctly rounded.
    """
    n = P.shape[0]
    if n > 8:
        raise ValueError("exact oracle is limited to n <= 8")
    F = [[Fraction(float(x)) for x in row] for row in P]
    Q = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rest = [x for x in range(n) if x not in (i, j)]
            h = _solve_exact([[int(a == b) - F[a][b] for b in rest] for a in rest],
                             [F[a][j] for a in rest])
            Q[i, j] = float(F[i][j] + sum(F[i][x] * hx for x, hx in zip(rest, h)))
    return Q


def oracle_best_two_partition(points) -> set:
    """Minimal-inertia 2-partition of 1-d points by enumeration."""
    points = list(points)
    n = len(points)
    best, best_cost = None, np.inf
    for bits in range(1, 2**n - 1):
        groups = ([], [])
        for t, x in enumerate(points):
            groups[(bits >> t) & 1].append(x)
        cost = sum(
            sum((x - np.mean(g)) ** 2 for x in g) for g in groups if g
        )
        if cost < best_cost:
            best_cost = cost
            best = frozenset(frozenset(g) for g in groups)
    return best


def oracle_one_median(D: np.ndarray) -> int:
    """Index minimizing the total distance to all points."""
    return int(np.argmin(D.sum(axis=0)))


def oracle_purity(labels, truth, k) -> float:
    best = 0.0
    for perm in itertools.permutations(range(k)):
        matched = sum(1 for a, b in zip(labels, truth) if perm[a] == b)
        best = max(best, matched / len(truth))
    return best
