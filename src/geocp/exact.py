"""Exact oracles for extinction times.

Three independent routes are kept deliberately separate so they can check
each other and the simulators:

* a hitting-time recursion for the infected-count chain on a complete
  graph, carried in log space so it survives sizes in the hundreds;
* the spectral (eigenvalue-sum) representation of the same absorption
  time, which also yields exact-in-distribution samples of extinction
  times far beyond any simulable horizon;
* an exact solve of the jump chain on arbitrary graphs, lumped to the
  infected count in each twin class (a twin-free graph keeps all 2^|V|
  states) and eliminated one infected-count level at a time with
  subtraction-free (GTH) diagonals, so it stays exact where E[tau] is huge;
  its budget is the widest level of the lumped chain, not the vertex count.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .errors import BELOW_INF, BudgetExceededError, as_int, as_real
from .graphs import Graph
from .rng import TAG_SPECTRAL, mix64


_LAM = "lam must be finite and non-negative"


def log_exact_clique_extinction(m: int, lam: float) -> float:
    """log E[extinction time] for the infected count on a complete graph of
    size m started fully infected.

    The count k moves up at rate lam*k*(m-k) and down at rate k with 0
    absorbing.  With h_k the mean passage time from k to k-1,
    h_k = (1 + up_k * h_{k+1}) / k, and the answer is sum_k h_k; both are
    accumulated in log space.
    """
    m = as_int(m, "m must be a positive integer", 1)
    lam = as_real(lam, _LAM, 0.0, BELOW_INF)
    log_h = -math.log(m)  # h_m = 1/m
    total = log_h
    for k in range(m - 1, 0, -1):
        up = lam * k * (m - k)
        if up > 0.0:
            log_h = np.logaddexp(0.0, math.log(up) + log_h) - math.log(k)
        else:
            log_h = -math.log(k)
        total = np.logaddexp(total, log_h)
    return float(total)


def clique_extinction_rates(m: int, lam: float) -> np.ndarray:
    """Eigenvalues of the killed infected-count generator on {1..m}.

    The absorption time from full occupancy is distributed as the sum of m
    independent exponentials with these rates, so they give both exact
    moments and exact samples.  Rates come from the symmetrized tridiagonal
    form, solved as a dense symmetric matrix; in metastable regimes the
    escape rate sits exponentially far below the dense-solver error floor,
    so the smallest rate is recovered instead from the exact log-space mean
    through the rate-sum identity sum_i 1/rate_i = E[absorption time].
    """
    m = as_int(m, "m must be a positive integer", 1)
    lam = as_real(lam, _LAM, 0.0, BELOW_INF)
    k = np.arange(1, m + 1, dtype=float)
    up = lam * k * (m - k)  # up[m-1] = 0
    down = k
    diag = -(up + down)
    off = np.sqrt(up[:-1] * down[1:])
    evals = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    rates = np.sort(-evals)
    if m == 1:
        return np.array([1.0])
    scale = float(np.abs(diag).max())
    floor = 1e-8 * scale
    if rates[1] <= floor:
        raise ArithmeticError(
            "two near-zero rates: spectral splitting not resolvable in doubles"
        )
    log_mean = log_exact_clique_extinction(m, lam)
    tail = float((1.0 / rates[1:]).sum())
    # residual mean attributable to the slowest mode, in log space
    if log_mean > math.log(tail) + 36.0:  # tail negligible at double precision
        log_slow = log_mean
    else:
        slow = math.exp(log_mean) - tail
        if slow <= 0:
            raise ArithmeticError("rate-sum identity violated beyond tolerance")
        log_slow = math.log(slow)
    rates[0] = math.exp(-log_slow)
    return rates


_SAMPLE_BLOCK = 1 << 16  # uniforms per block of sample_clique_extinction_times


def sample_clique_extinction_times(m: int, lam: float, count: int, seed: int) -> np.ndarray:
    """Exact-in-distribution extinction-time samples for the full-start
    complete graph, drawn as sums of independent exponentials with the
    spectral rates.  Usable in regimes where direct simulation would need
    astronomically many events."""
    count = as_int(count, "count must be a non-negative integer")
    lam = as_real(lam, _LAM, 0.0, BELOW_INF)
    rates = clique_extinction_rates(m, lam)
    rng = np.random.default_rng(mix64(seed, TAG_SPECTRAL))
    out = np.empty(count)
    rows = max(1, _SAMPLE_BLOCK // m)
    for lo in range(0, count, rows):
        # the generator fills sequentially, so the blocks draw what one
        # (count, m) array would; each becomes -log1p(-u) / rates in place
        u = rng.random((min(rows, count - lo), m))
        np.negative(u, out=u)
        np.log1p(u, out=u)
        np.negative(u, out=u)
        u /= rates
        u.sum(axis=1, out=out[lo:lo + len(u)])
    return out


def _twin_classes(adjacency) -> list[list[int]]:
    """The twin classes of a graph, ordered by smallest member.

    Vertices with the same closed neighbourhood N[v] form a true-twin
    clique; the rest are grouped by open neighbourhood N(v) into false-twin
    independent sets and singletons (no vertex has twins of both kinds).
    """
    closed: dict[frozenset, list[int]] = {}
    for v, nbrs in enumerate(adjacency):
        closed.setdefault(frozenset(nbrs).union((v,)), []).append(v)
    groups: dict[int | frozenset, list[int]] = {}
    for members in closed.values():  # in order of smallest member
        key = members[0] if len(members) > 1 else frozenset(adjacency[members[0]])
        groups.setdefault(key, []).extend(members)
    return sorted(groups.values())  # members ascend, and classes are disjoint


def _class_adjacency(adjacency, classes: list[list[int]]) -> np.ndarray:
    """B[i, j] = 1 when the members of class i are joined to those of class
    j.  Classes are modules, so B is read from one representative per class,
    and B[j, j] = 1 exactly when class j is a clique of two or more."""
    label = {v: j for j, members in enumerate(classes) for v in members}
    B = np.zeros((len(classes), len(classes)), dtype=np.int64)
    B[[j for j, members in enumerate(classes) for _ in adjacency[members[0]]],
      [label[w] for members in classes for w in adjacency[members[0]]]] = 1
    return B


def _by_level(row, col, val, first):
    """Split jumps listed by source in level order (`row`, ascending) into
    one (row within the level, target rank, rate) triple per level."""
    cut = np.searchsorted(row, first)
    return [(row[a:b] - first[k], col[a:b], val[a:b])
            for k, (a, b) in enumerate(zip(cut[:-1], cut[1:]))]


_HARD_CAP = 14  # caps above it count as 14: at most C(14, 7) = 3 432 states per level


def exact_expected_extinction_ctmc(g: Graph, lam: float, cap: int = 12) -> float:
    """Expected extinction time from full occupancy of the contact process
    on g, solved exactly on the jump chain lumped over twin classes.

    Swapping twins leaves the chain unchanged, so it lumps exactly to the
    count vector c (c_j infected of the s_j vertices of class j; Simon,
    Taylor & Kiss 2011).  c_j falls by one at rate c_j and rises by one at
    rate lam (s_j - c_j) (sum of c_i over classes i adjacent to j, plus c_j
    if j is a clique).  A twin-free graph has singleton classes and keeps
    all 2^|V| states.

    The chain is solved one infected-count level k at a time, top down.
    G_k (where level k-1 is first entered) and c_k (the mean time to get
    there) solve M_k [G_k | c_k] = [R_k | 1 + U_k c_{k+1}], with R_k and U_k
    the recovery and infection rates out of level k and M_k = k + the
    off-diagonal row sums of W = U_k G_{k+1} on the diagonal, -W off it.
    That diagonal needs no subtraction (the GTH step of Grassmann, Taksar &
    Heyman 1985), so the means stay exact when E[tau] is astronomical.
    E[tau] = sum_k pi_k . c_k, pi_k the first-entry law of level k.

    The widest level holds w^2 doubles, so graphs whose widest level
    exceeds w = C(limit, limit // 2), limit = min(cap, _HARD_CAP), are
    refused before any state or the class adjacency is built: on a
    twin-free graph the budget is exactly |V| <= limit.  A negative limit
    refuses every graph.
    """
    lam = as_real(lam, _LAM, 0.0, BELOW_INF)
    limit = min(as_int(cap, "cap must be an integer", -math.inf), _HARD_CAP)
    n = g.vertex_count
    if n == 0:
        return 0.0
    classes = _twin_classes(g.adjacency)
    budget = math.comb(limit, limit // 2) if limit >= 0 else 0
    # states per level: the product of the class polynomials 1 + x + ... + x^s,
    # in exact integers.  It dominates (1 + x)^c after c classes, so the widest
    # level holds at least C(c, c // 2) states and the loop stops by class 15
    width = [1]
    for i, members in enumerate(classes, 1):
        low = list(accumulate(width, initial=0))  # low[k] = width[0] + ... + width[k-1]
        s = len(members)
        width = [low[min(k + 1, len(width))] - low[max(k - s, 0)]
                 for k in range(len(width) + s)]
        if max(width) > budget:
            raise BudgetExceededError(
                f"the widest level holds at least {max(width)} states after {i} of "
                f"{len(classes)} twin classes, above the CTMC budget of {budget} states "
                f"for limit {limit}")
    sizes = np.array([len(members) for members in classes], dtype=np.int64)
    B = _class_adjacency(g.adjacency, classes)
    radix = sizes + 1
    place = np.cumprod(np.concatenate([[1], radix[:-1]]))
    counts = np.arange(np.prod(radix))[:, None] // place % radix  # state index -> count vector
    total = counts.sum(axis=1)
    order = np.argsort(total, kind="stable")  # the states level by level
    first = np.searchsorted(total[order], np.arange(n + 3))  # level k: order[first[k]:first[k + 1]]
    rank = np.empty_like(order)  # index of a state within its level
    rank[order] = np.arange(len(order)) - first[total[order]]
    counts = counts[order]  # from here on, in level order
    row, j = np.nonzero(counts)
    down = _by_level(row, rank[order[row] - place[j]], counts[row, j], first)
    rate = (sizes - counts) * (counts @ B)
    row, j = np.nonzero(rate)
    up = _by_level(row, rank[order[row] + place[j]], lam * rate[row, j], first)

    G_up, c_up = np.zeros((0, 1)), np.zeros(0)
    pi = np.ones(1)
    mean = 0.0
    for k in range(n, 0, -1):
        m = first[k + 1] - first[k]
        R = np.zeros((m, first[k] - first[k - 1]))
        rows, cols, rates = down[k]
        R[rows, cols] = rates
        U = np.zeros((m, first[k + 2] - first[k + 1]))
        rows, cols, rates = up[k]
        U[rows, cols] = rates
        W = U @ G_up
        np.fill_diagonal(W, 0.0)
        M = np.diag(k + W.sum(axis=1)) - W
        X = np.linalg.solve(M, np.column_stack([R, 1.0 + U @ c_up]))
        G_up, c_up = X[:, :-1], X[:, -1]
        mean += float(pi @ c_up)
        pi = pi @ G_up
    return mean
