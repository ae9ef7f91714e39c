"""Earlier forms of the percolation routines, kept as references that the
tests compare the package against: the long-path search with a dict of
neighbour iterators, a `_greedy_extend` call and a `mix64` hash on every
polish step and no early stop, and the GTH mean with one outer product per
censored state.  Also the machine check of a site path, and the scalar
arrow flag that the oriented-percolation stepper is checked against."""

from typing import Sequence

import numpy as np

from geocp.percolation import SiteGrid, _bfs_far, _greedy_extend, _open_adjacency
from geocp.graphs import _components
from geocp.rng import TAG_ARROW, mix64, uniform_from_key

_NEAR_HEAD = 256


def _dfs_deep_path(order, start: int) -> list[int]:
    parent = [-2] * len(order)
    parent[start] = -1
    iters = {start: iter(order[start])}
    stack = [start]
    deepest, best_depth = start, 1
    while stack:
        v = stack[-1]
        w = next(iters[v], None)
        if w is None:
            stack.pop()
            continue
        if parent[w] != -2:
            continue
        parent[w] = v
        iters[w] = iter(order[w])
        stack.append(w)
        if len(stack) > best_depth:
            best_depth = len(stack)
            deepest = w
    path = [deepest]
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _position(path: list[int], v: int) -> int:
    try:
        return path.index(v, max(0, len(path) - _NEAR_HEAD))
    except ValueError:
        return path.index(v)


def _polish(path: list[int], adj, n_sites: int, salt: int, failure_budget: int,
            max_steps: int) -> list[int]:
    visited = bytearray(n_sites)
    on_path = bytearray(n_sites)
    for v in path:
        visited[v] = on_path[v] = 1
    best = list(path)
    steps = 0
    failures = 0
    while steps < max_steps and failures < failure_budget:
        steps += 1
        if steps % 2 == 0:
            path.reverse()
        if _greedy_extend(path, visited, on_path, adj):
            failures = 0
            if len(path) > len(best):
                best = list(path)
            continue
        pred = path[-2] if len(path) > 1 else -1
        cands = [_position(path, v) for v in adj[path[-1]] if on_path[v] and v != pred]
        failures += 1
        if cands:
            i = cands[mix64(salt, steps) % len(cands)]
            path[i + 1:] = path[:i:-1]
        elif len(path) > 1:
            on_path[path.pop()] = 0
    return best


def _grow_from(start: int, adj, orders, n_sites: int, salt: int = 0,
               failure_budget: int = 400) -> list[int]:
    max_steps = 25 * n_sites + 2000
    best: list[int] = [start]
    for descending, order in enumerate(orders):
        first = _dfs_deep_path(order, start)
        second = _dfs_deep_path(order, first[-1])
        seedpath = second if len(second) > len(first) else first
        polished = _polish(seedpath, adj, n_sites, mix64(salt, descending),
                           failure_budget, max_steps)
        if len(polished) > len(best):
            best = polished
    return best


def find_long_open_path(grid: SiteGrid) -> list[tuple[int, ...]]:
    flat_open, adj = _open_adjacency(grid.open)
    if flat_open.size == 0:
        return []
    comp = _components(adj)[0]
    f1 = _bfs_far(adj, min(comp))
    f2 = _bfs_far(adj, f1)
    candidates = [f1, f2]
    if len(comp) <= 2000:
        candidates += [min(comp), max(comp),
                       min(comp, key=lambda v: (len(adj[v]), v))]
    starts = []
    for s in candidates:
        if s not in starts:
            starts.append(s)
    ascending = [sorted(nbrs) for nbrs in adj]
    orders = (ascending, [nbrs[::-1] for nbrs in ascending])
    best: list[int] = []
    for si, s in enumerate(starts):
        path = _grow_from(s, adj, orders, flat_open.size, salt=si)
        if len(path) > len(best):
            best = path
    sites = np.argwhere(grid.open).tolist()
    return [tuple(sites[v]) for v in best]


def gth_last_mean(M: np.ndarray, exits: np.ndarray, reward: np.ndarray) -> float:
    """GTH state reduction one censored state at a time."""
    P = M.copy()
    np.fill_diagonal(P, 0.0)
    exits = exits.copy()
    reward = reward.copy()
    for k in range(len(P) - 1):
        f = P[k + 1:, k] / (P[k, k + 1:].sum() + exits[k])
        P[k + 1:, k + 1:] += np.outer(f, P[k, k + 1:])
        exits[k + 1:] += f * exits[k]
        reward[k + 1:] += f * reward[k]
    return float(reward[-1] / exits[-1])


def path_is_valid(grid: SiteGrid, path: Sequence[tuple[int, ...]]) -> bool:
    """Machine check: open sites, lattice-adjacent consecutive pairs, no repeats."""
    if len(set(path)) != len(path):
        return False
    for site in path:
        if len(site) != len(grid.dims):
            return False
        if not all(0 <= c < d for c, d in zip(site, grid.dims)):
            return False
        if not grid.open[site]:
            return False
    for a, b in zip(path, path[1:]):
        diff = [abs(x - y) for x, y in zip(a, b)]
        if sum(diff) != 1 or max(diff) != 1:
            return False
    return True


def arrow_open(seed: int, i: int, k: int, direction: int, q: float) -> bool:
    """Arrow from (i, k) to (i - 1, k + 1) for direction 0, or to
    (i + 1, k + 1) for direction 1: open when
    uniform_from_key(seed, TAG_ARROW, i, k, direction) < q.

    The underlying uniform depends only on (seed, i, k, direction), so the
    same field serves every q.
    """
    return uniform_from_key(seed, TAG_ARROW, i, k, direction) < q
