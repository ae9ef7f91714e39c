"""Correctness checks on geocp's outputs.

Every check returns a list of failure messages; an empty list is a pass.
The inputs are plain values (numbers, arrays, tuples of sites), so the
benchmark's tests can feed each check a wrong input and watch it fail.

Statistical checks take a false-alarm probability `alpha`: a correct
program fails one with probability at most alpha (under the stated
approximation), whatever the seed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats
from scipy.spatial import cKDTree

import oracles


def close(name: str, got: float, want: float, rtol: float) -> list[str]:
    if abs(got - want) <= rtol * abs(want):
        return []
    return [f"{name}: {got!r} differs from {want!r} by more than rtol={rtol:g}"]


def mean_matches(name: str, sample: np.ndarray, m1: float, m2: float, alpha: float) -> list[str]:
    """Sample mean of i.i.d. extinction times against the exact first and
    second moments.

    The mean of R positive variates is approximated by the gamma law with
    the same mean and variance, whose skewness (twice the coefficient of
    variation over sqrt(R)) is that of a mean of exponentials; the test
    is two-sided at level alpha.
    """
    count = len(sample)
    var = (m2 - m1 * m1) / count
    shape, scale = m1 * m1 / var, var / m1
    lo = stats.gamma.ppf(alpha / 2, shape, scale=scale)
    hi = stats.gamma.isf(alpha / 2, shape, scale=scale)
    mean = float(np.mean(sample))
    if lo <= mean <= hi:
        return []
    return [f"{name}: mean {mean:.6g} of {count} outside [{lo:.6g}, {hi:.6g}] "
            f"around the exact {m1:.6g} (z={(mean - m1) / math.sqrt(var):+.2f})"]


def standard_score(sample: np.ndarray, m1: float, m2: float) -> float:
    return (float(np.mean(sample)) - m1) / math.sqrt((m2 - m1 * m1) / len(sample))


def pooled_score(name: str, scores: list[float], alpha: float) -> list[str]:
    """Sum of independent standard scores over sqrt(count), two-sided normal
    test at level alpha: catches a bias too small for any single cell."""
    z = sum(scores) / math.sqrt(len(scores))
    limit = stats.norm.isf(alpha / 2)
    if abs(z) <= limit:
        return []
    return [f"{name}: pooled z={z:+.2f} over {len(scores)} cells exceeds {limit:.2f}"]


def binomial_matches(name: str, freq: float, replicas: int, p: float, alpha: float) -> list[str]:
    """Observed frequency against the exact probability, exact two-sided
    binomial test at level alpha."""
    hits = round(freq * replicas)
    lo = stats.binom.ppf(alpha / 2, replicas, p)
    hi = stats.binom.isf(alpha / 2, replicas, p)
    if lo <= hits <= hi:
        return []
    return [f"{name}: {hits}/{replicas} outside [{lo:.0f}, {hi:.0f}] for exact p={p:.6g}"]


def edge_set_matches(name: str, adjacency, points: np.ndarray, radius: float) -> list[str]:
    """Graph edges equal the pairs within `radius` found by a k-d tree."""
    n = len(adjacency)
    degrees = np.fromiter((len(a) for a in adjacency), dtype=np.int64, count=n)
    rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
    cols = np.fromiter((w for a in adjacency for w in a), dtype=np.int64, count=int(degrees.sum()))
    upper = rows < cols
    got = np.sort(rows[upper] * n + cols[upper])
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    want = np.sort(pairs.min(axis=1) * n + pairs.max(axis=1))
    if got.size == want.size and np.array_equal(got, want):
        return []
    missing = np.setdiff1d(want, got).size
    extra = np.setdiff1d(got, want).size
    return [f"{name}: edge set differs from the k-d tree pairs ({missing} missing, {extra} extra)"]


def all_censored_at(name: str, taus: np.ndarray, censored: np.ndarray, t_cap: float) -> list[str]:
    """Every replica censored with tau == t_cap exactly."""
    if bool(np.all(censored)) and bool(np.all(taus == t_cap)):
        return []
    return [f"{name}: {int((~censored).sum())} of {len(taus)} replicas not censored at t_cap={t_cap}"]


def subcritical_bracket(name: str, taus: np.ndarray, censored: np.ndarray, sizes, birth: float,
                        alpha: float) -> list[str]:
    """Mean extinction time of subcritical replicas (vertex counts `sizes`,
    lam * max degree = `birth`) between Chernoff gates around H_n and
    E[T_BD], each with false-alarm probability alpha / 2."""
    if bool(np.any(censored)):
        return [f"{name}: {int(censored.sum())} replicas censored"]
    lo = oracles.mean_lower_gate(sizes, alpha / 2)
    hi = oracles.mean_upper_gate(sizes, birth, alpha / 2)
    mean = float(np.mean(taus))
    if lo <= mean <= hi:
        return []
    return [f"{name}: mean {mean:.4g} outside the Chernoff bracket [{lo:.4g}, {hi:.4g}]"]


def non_decreasing(name: str, values) -> list[str]:
    """Values in order, None standing for +infinity."""
    vals = [math.inf if v is None else v for v in values]
    bad = [i for i in range(len(vals) - 1) if vals[i] > vals[i + 1]]
    if not bad:
        return []
    return [f"{name}: decreases at positions {bad} in {list(values)}"]


def path_valid(name: str, open_sites: np.ndarray, path) -> list[str]:
    """In bounds, open, no site twice, consecutive sites lattice neighbours."""
    sites = [tuple(int(c) for c in s) for s in path]
    out = []
    if len(set(sites)) != len(sites):
        out.append(f"{name}: path repeats a site")
    shape = open_sites.shape
    for s in sites:
        if len(s) != len(shape) or not all(0 <= c < d for c, d in zip(s, shape)):
            out.append(f"{name}: site {s} out of bounds")
        elif not open_sites[s]:
            out.append(f"{name}: site {s} is closed")
    for a, b in zip(sites, sites[1:]):
        if sum(abs(x - y) for x, y in zip(a, b)) != 1:
            out.append(f"{name}: {a} and {b} are not lattice neighbours")
    return out


def path_length_within(name: str, open_sites: np.ndarray, length: int, exhaustive: bool,
                       floor: float) -> list[str]:
    """Between floor * bound and bound, the bound being the exhaustive
    optimum on tiny grids and the largest open cluster otherwise.  The upper
    end holds for any valid path; the lower end is the quality a heuristic
    must keep."""
    bound = oracles.longest_open_path(open_sites) if exhaustive else oracles.largest_open_cluster(open_sites)
    kind = "exhaustive optimum" if exhaustive else "largest open cluster"
    if length > bound:
        return [f"{name}: path of {length} sites exceeds the {kind} ({bound})"]
    if length < floor * bound:
        return [f"{name}: path of {length} sites is shorter than {floor:g} of the {kind} ({bound})"]
    return []


def embedding_within(name: str, points: np.ndarray, blocks, radius: float) -> list[str]:
    """Every pair inside a block and across consecutive blocks within radius."""
    out = []
    for i, block in enumerate(blocks):
        span = list(block) + (list(blocks[i + 1]) if i + 1 < len(blocks) else [])
        a = points[list(block)]
        d = np.sqrt(((a[:, None, :] - points[span][None, :, :]) ** 2).sum(axis=2))
        if d.max() > radius:
            out.append(f"{name}: block {i} has a pair {d.max():.4g} apart, radius {radius:.4g}")
    return out


def same_answers(name: str, forward_hits, dual_hits) -> list[str]:
    """Forward and dual hit indicators agree pair by pair."""
    bad = [i for i, (f, d) in enumerate(zip(forward_hits, dual_hits)) if bool(f) != bool(d)]
    if len(forward_hits) == len(dual_hits) and not bad:
        return []
    return [f"{name}: forward and dual disagree on {len(bad)} of {len(forward_hits)} pairs "
            f"(hit counts {sum(map(bool, forward_hits))} vs {sum(map(bool, dual_hits))})"]


def contained(name: str, lows, highs) -> list[str]:
    """Each low set is a subset of the high set at the same index."""
    bad = [i for i, (lo, hi) in enumerate(zip(lows, highs)) if not set(lo) <= set(hi)]
    if len(lows) == len(highs) and not bad:
        return []
    return [f"{name}: containment fails at {len(bad)} of {len(lows)} positions, first {bad[:1]}"]


def first_passage_agrees(name: str, sigma, censored: bool, occupancy, ell: int) -> list[str]:
    """sigma is the first step whose occupied set holds ell (censored when
    none does)."""
    want = next((t for t, occ in enumerate(occupancy) if ell in occ), None)
    if (want is None) == bool(censored) and sigma == want:
        return []
    return [f"{name}: first passage {sigma} (censored={censored}) but the run reaches {ell} at {want}"]
