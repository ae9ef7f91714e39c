"""Exact oracles for extinction times.

Three independent routes are kept deliberately separate so they can check
each other and the simulators:

* a hitting-time recursion for the infected-count chain on a complete
  graph, carried in log space so it survives sizes in the hundreds;
* the spectral (eigenvalue-sum) representation of the same absorption
  time, which also yields exact-in-distribution samples of extinction
  times far beyond any simulable horizon;
* an exact solve of the 2^|V|-state jump chain on arbitrary graphs of up
  to 14 vertices, eliminated one infected-count level at a time with
  subtraction-free (GTH) diagonals, so it stays exact where E[tau] is huge.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import BudgetExceededError
from .graphs import Graph
from .rng import mix64

_MAX_EXP = math.log(sys.float_info.max)


def log_exact_clique_extinction(m: int, lam: float) -> float:
    """log E[extinction time] for the infected count on a complete graph of
    size m started fully infected.

    The count k moves up at rate lam*k*(m-k) and down at rate k with 0
    absorbing.  With h_k the mean passage time from k to k-1,
    h_k = (1 + up_k * h_{k+1}) / k, and the answer is sum_k h_k; both are
    accumulated in log space.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if lam < 0:
        raise ValueError("lam must be non-negative")
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


def exact_clique_extinction(m: int, lam: float) -> float:
    """Linear-space expected extinction time; refuses if it overflows."""
    lv = log_exact_clique_extinction(m, lam)
    if lv > _MAX_EXP:
        raise OverflowError(f"log mean = {lv:.3f} exceeds double range; use the log form")
    return math.exp(lv)


def clique_extinction_rates(m: int, lam: float) -> np.ndarray:
    """Eigenvalues of the killed infected-count generator on {1..m}.

    The absorption time from full occupancy is distributed as the sum of m
    independent exponentials with these rates, so they give both exact
    moments and exact samples.  Rates come from the symmetrized tridiagonal
    form; in metastable regimes the escape rate sits exponentially far
    below the dense-solver error floor, so the smallest rate is recovered
    instead from the exact log-space mean through the rate-sum identity
    sum_i 1/rate_i = E[absorption time].
    """
    if m < 1:
        raise ValueError("m must be positive")
    k = np.arange(1, m + 1, dtype=float)
    up = lam * k * (m - k)  # up[m-1] = 0
    down = k
    diag = -(up + down)
    off = np.sqrt(up[:-1] * down[1:])
    evals = eigh_tridiagonal(diag, off, eigvals_only=True)
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


def sample_clique_extinction_times(m: int, lam: float, count: int, seed: int) -> np.ndarray:
    """Exact-in-distribution extinction-time samples for the full-start
    complete graph, drawn as sums of independent exponentials with the
    spectral rates.  Usable in regimes where direct simulation would need
    astronomically many events."""
    if count < 0:
        raise ValueError("count must be non-negative")
    rates = clique_extinction_rates(m, lam)
    rng = np.random.default_rng(mix64(seed, 0x50485459))
    u = rng.random((count, m))
    return (-np.log1p(-u) / rates).sum(axis=1)


def exact_expected_extinction_ctmc(g: Graph, lam: float, cap: int = 12,
                                   hard_cap: int = 14) -> float:
    """Expected extinction time from full occupancy of the 2^|V|-state
    jump chain, solved one infected-count level k at a time, top down.

    G_k (where level k-1 is first entered) and c_k (the mean time to get
    there) solve M_k [G_k | c_k] = [R_k | 1 + U_k c_{k+1}], with R_k and U_k
    the recovery and infection rates out of level k and M_k = k + the
    off-diagonal row sums of W = U_k G_{k+1} on the diagonal, -W off it.
    That diagonal needs no subtraction (the GTH step of Grassmann, Taksar &
    Heyman 1985), so the means stay exact when E[tau] is astronomical.
    E[tau] = sum_k pi_k . c_k, pi_k the first-entry law of level k.

    Refuses graphs above `cap` vertices unless the caller raises it, and
    never accepts more than `hard_cap`: the widest level holds C(n, n/2)^2
    doubles.
    """
    if not 0.0 <= lam < math.inf:
        raise ValueError("lam must be finite and non-negative")
    n = g.vertex_count
    if n == 0:
        return 0.0
    limit = min(cap, hard_cap)
    if n > limit:
        raise BudgetExceededError(f"{n} vertices exceed the CTMC budget of {limit}")
    count = np.array([s.bit_count() for s in range(1 << n)], dtype=np.int64)
    levels = [np.flatnonzero(count == k) for k in range(n + 2)]  # level n+1 is empty
    rank = np.empty(1 << n, dtype=np.int64)  # index of a mask within its level
    for states in levels:
        rank[states] = np.arange(len(states))
    bits = 1 << np.arange(n, dtype=np.int64)
    nbr_masks = np.array([sum(1 << w for w in g.adjacency[v]) for v in range(n)], dtype=np.int64)

    G_up, c_up = np.zeros((0, 1)), np.zeros(0)
    pi = np.ones(1)
    total = 0.0
    for k in range(n, 0, -1):
        states = levels[k]
        m = len(states)
        infected = (states[:, None] & bits) != 0
        row, v = np.nonzero(infected)
        R = np.zeros((m, len(levels[k - 1])))
        R[row, rank[states[row] ^ bits[v]]] = 1.0
        row, v = np.nonzero(~infected)
        U = np.zeros((m, len(levels[k + 1])))
        U[row, rank[states[row] | bits[v]]] = lam * count[states[row] & nbr_masks[v]]
        W = U @ G_up
        np.fill_diagonal(W, 0.0)
        M = np.diag(k + W.sum(axis=1)) - W
        X = np.linalg.solve(M, np.column_stack([R, 1.0 + U @ c_up]))
        G_up, c_up = X[:, :-1], X[:, -1]
        total += float(pi @ c_up)
        pi = pi @ G_up
    return total
