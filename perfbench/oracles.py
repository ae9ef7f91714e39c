"""Exact values computed apart from geocp, for the benchmark's checks.

Nothing here imports geocp: each function is a second route to a number
the program also produces, or a bound the method must respect.

* absorption-time moments of the contact process on tiny graphs (full
  2^n-state chain), on caterpillars (exchangeable clique vertices lumped
  into counts) and on cliques (infected count only), by dense solves;
* Chernoff bounds on the mean extinction time of subcritical RGG replicas,
  from below by the last first-recovery of n vertices and from above by
  the linear birth-death process with birth rate lam*Delta;
* oriented-percolation survival by transfer over occupied subsets;
* site-percolation clusters and an exhaustive longest-path search.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
from scipy import ndimage
from scipy.special import gammaln


def absorption_moments(sub_generator: np.ndarray, start: int) -> tuple[float, float]:
    """First and second moments of the absorption time from `start`, given
    the generator restricted to the transient states (rows need not sum to
    zero: the deficit is the absorption rate)."""
    a = -sub_generator
    m1 = np.linalg.solve(a, np.ones(a.shape[0]))
    m2 = np.linalg.solve(a, 2.0 * m1)
    return float(m1[start]), float(m2[start])


def graph_generator(adjacency, lam: float) -> np.ndarray:
    """Dense generator of the contact process on all 2^n infected sets,
    restricted to the non-empty ones (state s - 1 holds the set with bit
    mask s)."""
    n = len(adjacency)
    states = np.arange(1 << n)
    q = np.zeros((1 << n, 1 << n))
    for v in range(n):
        bit = 1 << v
        infected = (states & bit) != 0
        q[states[infected], states[infected] ^ bit] += 1.0
        pressure = np.zeros(1 << n)
        for w in adjacency[v]:
            pressure += (states >> w) & 1
        healthy = states[~infected & (pressure > 0)]
        q[healthy, healthy | bit] += lam * pressure[healthy]
    np.fill_diagonal(q, -q.sum(axis=1))
    return q[1:, 1:]


def graph_moments(adjacency, lam: float) -> tuple[float, float]:
    """Moments of the extinction time from full occupancy on a tiny graph."""
    n = len(adjacency)
    return absorption_moments(graph_generator(adjacency, lam), (1 << n) - 2)


def clique_moments(m: int, lam: float) -> tuple[float, float]:
    """Moments of the extinction time on K_m from full occupancy, through
    the infected count k in 1..m (up lam*k*(m-k), down k)."""
    k = np.arange(1, m + 1, dtype=float)
    up = lam * k * (m - k)
    q = np.diag(-(up + k)) + np.diag(up[:-1], 1) + np.diag(k[1:], -1)
    return absorption_moments(q, m - 1)


def caterpillar_moments(spine_length: int, clique_size: int, lam: float) -> tuple[float, float]:
    """Moments of the extinction time on the caterpillar C(spine_length,
    clique_size) from full occupancy.

    The vertices of one clique are exchangeable, so the state (spine bits,
    infected count per clique) is an exact lumping.  Spine vertex i is
    adjacent to i-1, i+1 and its whole clique; a healthy clique vertex has
    the clique's infected members and its spine vertex as neighbours.
    """
    blocks, m = spine_length + 1, clique_size
    states = list(product(product((0, 1), repeat=blocks), product(range(m + 1), repeat=blocks)))
    index = {s: i for i, s in enumerate(states)}
    q = np.zeros((len(states), len(states)))
    for i, (spine, counts) in enumerate(states):
        for b in range(blocks):
            nbrs = (spine[b - 1] if b > 0 else 0) + (spine[b + 1] if b + 1 < blocks else 0)
            flipped = spine[:b] + (1 - spine[b],) + spine[b + 1:]
            rate = 1.0 if spine[b] else lam * (nbrs + counts[b])
            q[i, index[(flipped, counts)]] += rate
            c = counts[b]
            if c > 0:
                q[i, index[(spine, counts[:b] + (c - 1,) + counts[b + 1:])]] += c
            if c < m:
                q[i, index[(spine, counts[:b] + (c + 1,) + counts[b + 1:])]] += lam * (m - c) * (c + spine[b])
    np.fill_diagonal(q, -q.sum(axis=1))
    empty = index[((0,) * blocks, (0,) * blocks)]
    full = index[((1,) * blocks, (m,) * blocks)]
    keep = [i for i in range(len(states)) if i != empty]
    sub = q[np.ix_(keep, keep)]
    return absorption_moments(sub, keep.index(full))


# ---------------------------------------------------------------------------
# subcritical bracket: last first-recovery below, birth-death above
# ---------------------------------------------------------------------------


def harmonic(n: int) -> float:
    """E[max of n independent Exp(1)] = H_n."""
    return float((1.0 / np.arange(1, n + 1)).sum())


def _bd_survival(n: int, birth: float):
    """Grid t and P(T_BD > t) for the process started at n; the grid reaches
    far enough that the integrands below are negligible beyond it."""
    gap = 1.0 - birth
    t = np.linspace(0.0, 200.0 / gap, 100_001)
    e = np.exp(-gap * t)
    p0 = (1.0 - e) / (1.0 - birth * e)  # one lineage extinct by t (death rate 1)
    with np.errstate(divide="ignore"):
        return t, -np.expm1(n * np.log(p0))


def bd_mean(n: int, birth: float) -> float:
    """E[T_BD]: extinction time of the linear birth-death process with
    per-capita birth rate `birth` < 1 and death rate 1, started at n, by
    quadrature of its survival function 1 - p0(t)^n."""
    t, tail = _bd_survival(n, birth)
    return float(np.trapezoid(tail, t))


def mean_upper_gate(sizes, birth: float, alpha: float) -> float:
    """Chernoff threshold U with P(mean of independent T_BD(n_i) > U) <= alpha.

    Each replica's extinction time is stochastically below T_BD started at
    its vertex count, because its infected count jumps up at rate at most
    lam*Delta*k; so a correct engine exceeds U with probability <= alpha.
    """
    grids = [_bd_survival(n, birth) for n in sizes]
    best = math.inf
    for theta in np.linspace(0.02, 0.9, 45) * (1.0 - birth):
        # E[exp(theta T)] = 1 + theta * integral of exp(theta t) P(T > t)
        log_mgf = sum(math.log1p(theta * float(np.trapezoid(np.exp(theta * t) * tail, t)))
                      for t, tail in grids)
        best = min(best, (math.log(1.0 / alpha) + log_mgf) / theta)
    return best / len(sizes)


def mean_lower_gate(sizes, alpha: float) -> float:
    """Chernoff threshold L with P(mean of independent M(n_i) < L) <= alpha,
    M(n) the maximum of n independent Exp(1).

    Extinction needs every vertex to have recovered at least once, so each
    replica's extinction time stochastically dominates M(n), and
    E[exp(-theta M(n))] = prod_k k / (k + theta).
    """
    best = -math.inf
    for theta in np.geomspace(0.01, 50.0, 200):
        log_lt = sum(gammaln(n + 1) + gammaln(theta + 1) - gammaln(n + theta + 1) for n in sizes)
        best = max(best, (math.log(alpha) - log_lt) / theta)
    return best / len(sizes)


# ---------------------------------------------------------------------------
# oriented percolation and site percolation
# ---------------------------------------------------------------------------


def op_survival(ell: int, q: float, steps: int) -> float:
    """P(occupied set non-empty after `steps` steps) from every even site of
    [0, ell]; each occupied site opens its arrows to i-1 and i+1
    independently with probability q."""
    dist = {frozenset(range(0, ell + 1, 2)): 1.0}
    for _ in range(steps):
        new: dict[frozenset, float] = {}
        for occupied, prob in dist.items():
            parents: dict[int, int] = {}
            for i in occupied:
                for j in (i - 1, i + 1):
                    if 0 <= j <= ell:
                        parents[j] = parents.get(j, 0) + 1
            targets = sorted(parents)
            p_open = [1.0 - (1.0 - q) ** parents[j] for j in targets]
            for picks in product((0, 1), repeat=len(targets)):
                pr = prob
                for pick, p in zip(picks, p_open):
                    pr *= p if pick else 1.0 - p
                key = frozenset(j for j, pick in zip(targets, picks) if pick)
                new[key] = new.get(key, 0.0) + pr
        dist = new
    return 1.0 - dist.get(frozenset(), 0.0)


def largest_open_cluster(open_sites: np.ndarray) -> int:
    """Size of the largest nearest-neighbour cluster of open sites."""
    labels, count = ndimage.label(open_sites, structure=ndimage.generate_binary_structure(open_sites.ndim, 1))
    if count == 0:
        return 0
    return int(np.bincount(labels.ravel())[1:].max())


def longest_open_path(open_sites: np.ndarray) -> int:
    """Exhaustive maximum vertex count of a simple open path (tiny grids)."""
    sites = [tuple(s) for s in np.argwhere(open_sites)]
    members = set(sites)
    nbrs = {s: [t for t in members if sum(abs(a - b) for a, b in zip(s, t)) == 1] for s in sites}
    best = 0

    def extend(head, seen):
        nonlocal best
        best = max(best, len(seen))
        for t in nbrs[head]:
            if t not in seen:
                seen.add(t)
                extend(t, seen)
                seen.remove(t)

    for s in sites:
        extend(s, {s})
    return best
