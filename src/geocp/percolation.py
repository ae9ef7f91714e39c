"""Site percolation with long-path extraction and finite-interval oriented
percolation, each paired with exact small-instance oracles.

Conventions used throughout:

* path "length" counts vertices, not edges;
* lattice adjacency is nearest-neighbor (one axis differs by one);
* oriented percolation lives on the parity lattice
  Gamma = {(i, k) in [0, ell] x N : i + k even}, arrows go from (i, k) to
  (i +/- 1, k + 1) and are counter-based hashes of (seed, i, k, direction),
  so runs with different retention probabilities or initial sets share one
  arrow field;
* every breadth-first search (open clusters, crossings, far sites, the
  gluing routes) is `graphs._bfs` over an adjacency of the open sites:
  local ids from `_open_adjacency`, or site tuples from `_site_adjacency`,
  with neighbors listed in axis order, lower side first;
* the long-path polish keeps its path in a plain list, so a Posa rotation
  is a slice reversal and a head's rotation candidates are found with
  list.index, in adjacency order;
* every oriented-percolation run steps through `_op_step`, which hashes a
  whole step's arrows at once for any number of replicas; replica r of a
  batch runs on the field of derive_seed(seed, r), so it is exactly the
  single run `op_run` with that seed.  Only the site grids draw from a
  numpy Generator;
* the exact oriented-percolation routes (`op_exact_survival`,
  `op_extinction_profile_exact`) share one budget of _EXACT_EVEN_SITES = 10
  even sites, i.e. ell <= 19.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetExceededError
from .graphs import _bfs, _components, _depths
from .rng import TAG_ARROW, TAG_REPLICA, TAG_SITE, mix64, mix64_array, uniform_from_key

# ---------------------------------------------------------------------------
# site grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SiteGrid:
    """Boolean open/closed field on a finite box of Z^d."""

    dims: tuple[int, ...]
    open: np.ndarray
    p: float | None
    seed: int | None

    def __post_init__(self):
        if any(d < 1 for d in self.dims):
            raise ValueError("dims must be positive")
        if tuple(self.open.shape) != tuple(self.dims):
            raise ValueError("open field shape does not match dims")


def sample_uniform_field(dims: Sequence[int], seed: int) -> np.ndarray:
    """Uniform marks per site; thresholding at p gives coupled site grids
    that are monotone in p."""
    rng = np.random.default_rng(mix64(seed, TAG_SITE))
    return rng.random(tuple(dims))


def grid_from_field(field_arr: np.ndarray, p: float, seed: int | None = None) -> SiteGrid:
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    return SiteGrid(tuple(field_arr.shape), field_arr < p, p, seed)


def sample_site_grid(dims: Sequence[int], p: float, seed: int) -> SiteGrid:
    """Independent Bernoulli(p) open flags, deterministic per seed."""
    return grid_from_field(sample_uniform_field(dims, seed), p, seed)


def _strides(dims: tuple[int, ...]) -> list[int]:
    s = [1] * len(dims)
    for axis in range(len(dims) - 2, -1, -1):
        s[axis] = s[axis + 1] * dims[axis + 1]
    return s


def _open_adjacency(open_arr: np.ndarray):
    """Local adjacency over the open sites only.

    Returns (flat ids of open sites, list of neighbor-lists in local ids).
    """
    dims = open_arr.shape
    flat_open = np.flatnonzero(open_arr.ravel())
    local = np.full(open_arr.size, -1, dtype=np.int64)
    local[flat_open] = np.arange(flat_open.size)
    coords = np.array(np.unravel_index(flat_open, dims)).T if flat_open.size else np.empty((0, len(dims)), int)
    strides = _strides(tuple(dims))
    adj: list[list[int]] = [[] for _ in range(flat_open.size)]
    for axis in range(len(dims)):
        ok = coords[:, axis] + 1 < dims[axis]
        src = np.nonzero(ok)[0]
        nb = local[flat_open[src] + strides[axis]]
        good = nb >= 0
        for a, b in zip(src[good].tolist(), nb[good].tolist()):
            adj[a].append(b)
            adj[b].append(a)
    return flat_open, adj


def _site_adjacency(open_arr: np.ndarray) -> dict:
    """`_open_adjacency` keyed by site coordinate tuples."""
    _, adj = _open_adjacency(open_arr)
    sites = list(map(tuple, np.argwhere(open_arr).tolist()))
    return {site: [sites[w] for w in nbrs] for site, nbrs in zip(sites, adj)}


def _bfs_far(adj, start) -> int:
    """Local id of a site at maximal BFS distance from start, the smallest
    such id on ties."""
    depth = _depths(_bfs(adj, [start])[0])
    return max(depth, key=lambda v: (depth[v], -v))


def _greedy_extend(path: list[int], visited: bytearray, on_path: bytearray, adj) -> int:
    added = 0
    while True:
        best = -1
        best_key = None
        for w in adj[path[-1]]:
            if visited[w]:
                continue
            deg = sum(1 for u in adj[w] if not visited[u])
            key = (deg == 0, deg, w)
            if best_key is None or key < best_key:
                best_key = key
                best = w
        if best < 0:
            return added
        path.append(best)
        visited[best] = on_path[best] = 1
        added += 1


def _dfs_deep_path(adj, start: int, descending: bool) -> list[int]:
    """Deepest root-to-leaf chain of the depth-first tree from `start`.

    Any root-leaf chain of a DFS tree is a simple path in the graph;
    depth-first exploration of grid-like clusters produces snake-like
    trunks whose depth grows linearly with the cluster, which makes this
    the scalable backbone of the heuristic.
    """
    n = len(adj)
    parent = [-2] * n
    parent[start] = -1
    order = [sorted(adj[v], reverse=descending) for v in range(n)]
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


def _polish(path: list[int], adj, n_sites: int, salt: int, failure_budget: int,
            max_steps: int) -> list[int]:
    """Extend both ends of the simple path greedily, re-pointing stuck heads
    with random Posa rotations and burning hopeless pendant heads; returns
    the best path seen within the budgets.

    A rotation picks a path vertex v adjacent to the head and reverses the
    segment after v, which turns v's successor into the new head.  A burned
    head leaves the path but stays visited, so it is never re-entered.
    """
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
        # pivots: the head's path neighbors other than its predecessor
        pred = path[-2] if len(path) > 1 else -1
        cands = [path.index(v) for v in adj[path[-1]] if on_path[v] and v != pred]
        failures += 1
        if cands:
            i = cands[mix64(salt, steps) % len(cands)]
            path[i + 1:] = path[:i:-1]
        elif len(path) > 1:
            on_path[path.pop()] = 0
    return best


def _grow_from(start: int, adj, n_sites: int, salt: int = 0,
               failure_budget: int = 400) -> list[int]:
    max_steps = 25 * n_sites + 2000
    best: list[int] = [start]
    # double sweep: deep DFS chain, then a second DFS from its far end
    for descending in (False, True):
        first = _dfs_deep_path(adj, start, descending)
        second = _dfs_deep_path(adj, first[-1], descending)
        seedpath = second if len(second) > len(first) else first
        polished = _polish(seedpath, adj, n_sites, mix64(salt, descending),
                           failure_budget, max_steps)
        if len(polished) > len(best):
            best = polished
    return best


def find_long_open_path(grid: SiteGrid) -> list[tuple[int, ...]]:
    """Heuristic long simple path through open sites of the grid.

    Multi-start greedy depth-first growth inside the largest open cluster
    (double-sweep endpoints plus extremal sites as starts), improved by
    rotate-and-extend moves.  Output is deterministic for a fixed grid and
    is never longer than the true optimum.
    """
    flat_open, adj = _open_adjacency(grid.open)
    if flat_open.size == 0:
        return []
    comp = _components(adj)[0]
    f1 = _bfs_far(adj, min(comp))
    f2 = _bfs_far(adj, f1)
    candidates = [f1, f2]
    if len(comp) <= 2000:  # extra restarts are cheap only on small clusters
        candidates += [min(comp), max(comp),
                       min(comp, key=lambda v: (len(adj[v]), v))]
    starts = []
    for s in candidates:
        if s not in starts:
            starts.append(s)
    best: list[int] = []
    for si, s in enumerate(starts):
        path = _grow_from(s, adj, flat_open.size, salt=si)
        if len(path) > len(best):
            best = path
    sites = np.argwhere(grid.open).tolist()
    return [tuple(sites[v]) for v in best]


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


def longest_open_path_exact(grid: SiteGrid, budget: int = 36) -> int:
    """Exact maximum simple-path vertex count via branch and bound.

    Refuses instances with more than `budget` open sites.  The bound prunes
    a branch when current length plus open sites still reachable from the
    head cannot beat the incumbent.
    """
    flat_open, adj = _open_adjacency(grid.open)
    n = flat_open.size
    if n == 0:
        return 0
    if n > budget:
        raise BudgetExceededError(f"{n} open sites exceed the exact-path budget of {budget}")
    nbr_mask = [0] * n
    for v in range(n):
        for w in adj[v]:
            nbr_mask[v] |= 1 << w
    best = 1

    def reachable(v: int, visited: int) -> int:
        seen = 1 << v
        frontier = nbr_mask[v] & ~visited
        while frontier:
            seen |= frontier
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                nxt |= nbr_mask[b.bit_length() - 1]
                f ^= b
            frontier = nxt & ~seen & ~visited
        return seen

    def dfs(v: int, visited: int, length: int):
        nonlocal best
        if length > best:
            best = length
        cand = nbr_mask[v] & ~visited
        if not cand:
            return
        ub = length - 1 + bin(reachable(v, visited & ~(1 << v))).count("1")
        if ub <= best:
            return
        f = cand
        while f:
            b = f & -f
            w = b.bit_length() - 1
            f ^= b
            dfs(w, visited | b, length + 1)

    order = sorted(range(n), key=lambda v: (len(adj[v]), v))
    for s in order:
        dfs(s, 1 << s, 1)
    return best


# ---------------------------------------------------------------------------
# crossings (used by the threshold sweep and the 3-d gluing)
# ---------------------------------------------------------------------------


def _route(adj: dict, sources, targets, blocked=()) -> list | None:
    """Shortest route through `adj` from any source to any target site."""
    parent, hit = _bfs(adj, sources, blocked, targets)
    if hit is None:
        return None
    route = [hit]
    while parent[route[-1]] is not None:
        route.append(parent[route[-1]])
    return route[::-1]


def has_crossing(grid: SiteGrid, axis: int = 0) -> bool:
    """True when an open path joins the two opposite faces along `axis`."""
    _, adj = _open_adjacency(grid.open)
    along = np.argwhere(grid.open)[:, axis]
    sources = np.flatnonzero(along == 0).tolist()
    targets = set(np.flatnonzero(along == grid.dims[axis] - 1).tolist())
    return _bfs(adj, sources, targets=targets)[1] is not None


def crossing_frequency(dims: Sequence[int], p: float, replicas: int, seed: int,
                       axis: int = 0) -> tuple[float, float]:
    """Monte Carlo crossing probability with its standard error."""
    if replicas < 1:
        raise ValueError("need at least one replica")
    hits = 0
    for r in range(replicas):
        grid = sample_site_grid(dims, p, mix64(seed, 0x43524F53, r))
        hits += has_crossing(grid, axis)
    f = hits / replicas
    se = math.sqrt(max(f * (1.0 - f), 1.0 / replicas) / replicas)
    return f, se


# ---------------------------------------------------------------------------
# d = 3 plane gluing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GluedPath:
    """Concatenated cross-plane path plus construction bookkeeping."""

    path: tuple[tuple[int, int, int], ...]
    planes_chained: int
    nice_planes_traversed: int
    min_traversed_plane_length: int
    used_fallback: bool


def _plane_heuristic_path(open2d: np.ndarray, rows: slice, cols: slice):
    sub = np.zeros_like(open2d)
    sub[rows, cols] = open2d[rows, cols]
    if not sub.any():
        return []
    grid = SiteGrid(sub.shape, sub, p=None, seed=None)
    return [tuple(site) for site in find_long_open_path(grid)]


def _band_crossing(open2d: np.ndarray, rows: tuple[int, int], spans_cols: bool):
    """Open crossing inside the row band; either spanning all columns or
    spanning the band's rows."""
    w = open2d.shape[1]
    lo, hi = rows
    band = np.zeros_like(open2d)
    band[lo:hi + 1, :] = open2d[lo:hi + 1, :]
    adj = _site_adjacency(band)
    if spans_cols:
        sources = [(y, 0) for y in range(lo, hi + 1)]
        targets = {(y, w - 1) for y in range(lo, hi + 1)}
    else:
        sources = [(lo, x) for x in range(w)]
        targets = {(hi, x) for x in range(w)}
    return _route(adj, [s for s in sources if s in adj], targets)


def _route_within_plane(adj: dict, entry, exit_site, lam_path):
    """Simple route entry -> exit through the plane's open sites `adj`,
    traversing `lam_path` when the stitching succeeds; falls back to a
    direct path.  Returns (route, traversed_lam); a route is never empty."""
    if lam_path:
        for lam in (lam_path, lam_path[::-1]):
            blocked = set(lam[1:])
            if entry is None:
                leg1 = [lam[0]]
            elif entry in blocked or entry == lam[0]:
                leg1 = [lam[0]] if entry == lam[0] else None
            else:
                leg1 = _route(adj, [entry], {lam[0]}, blocked - {lam[0]})
            if leg1 is None:
                continue
            used = set(leg1) | set(lam)
            route = leg1[:-1] + list(lam)
            if exit_site is None:
                return route, True
            if exit_site in used and exit_site != lam[-1]:
                continue
            if exit_site == lam[-1]:
                return route, True
            leg2 = _route(adj, [lam[-1]], {exit_site}, used - {lam[-1]})
            if leg2 is None:
                continue
            return route + leg2[1:], True
    if entry is None and exit_site is None:
        return None, False
    if entry is None:
        return [exit_site], False
    if exit_site is None or entry == exit_site:
        return [entry], False
    return _route(adj, [entry], {exit_site}), False


def glue_plane_paths(grid: SiteGrid, m: int, m1: int) -> GluedPath:
    """Chain long per-plane paths across a 3-d grid.

    Each plane i contributes a long path inside its middle window
    [2m, n-2m]^2; crossings in the side bands (rows [m, 2m] and
    [n-1-2m, n-1-m]) of consecutive planes intersect in projection and
    provide jump sites between planes.  A plane is treated as nice when its
    middle path has at least max(2, m1) sites; traversing a nice plane
    switches the walk to the opposite band, otherwise the walk slides along
    the same band.  Falls back to the plain 3-d heuristic when fewer than
    two planes can be chained.
    """
    if len(grid.dims) < 3:
        raise ValueError("plane gluing needs at least three axes")
    if len(grid.dims) > 3:
        # higher dimensions reuse the 3-d construction along the first
        # three axes, inside the slice with trailing coordinates zero
        tail = len(grid.dims) - 3
        sub = SiteGrid(grid.dims[:3], grid.open[(...,) + (0,) * tail], grid.p, grid.seed)
        res = glue_plane_paths(sub, m, m1)
        padded = tuple(site + (0,) * tail for site in res.path)
        return GluedPath(padded, res.planes_chained, res.nice_planes_traversed,
                         res.min_traversed_plane_length, res.used_fallback)
    planes, h, w = grid.dims
    if m < 1 or 4 * m + 2 > h:
        return _fallback_glued(grid)
    left_rows = (m, 2 * m)
    right_rows = (h - 1 - 2 * m, h - 1 - m)
    mid = slice(2 * m, h - 2 * m)
    lam_paths = []
    crossings = {"L": [], "R": []}
    for i in range(planes):
        plane = grid.open[i]
        lam_paths.append(_plane_heuristic_path(plane, mid, slice(2 * m, w - 2 * m)))
        spans_cols = i % 2 == 1
        crossings["L"].append(_band_crossing(plane, left_rows, spans_cols))
        crossings["R"].append(_band_crossing(plane, right_rows, spans_cols))
    jumps = {"L": [], "R": []}
    for side in ("L", "R"):
        for i in range(planes - 1):
            a, b = crossings[side][i], crossings[side][i + 1]
            if a is None or b is None:
                jumps[side].append(None)
            else:
                common = sorted(set(a) & set(b))
                jumps[side].append(common[0] if common else None)
    min_lam = max(2, m1)
    total: list[tuple[int, int, int]] = []
    side = "L"
    entry = None
    chained = 0
    nice_traversed = 0
    min_len = 0
    for i in range(planes):
        lam = lam_paths[i] if len(lam_paths[i]) >= min_lam else []
        exit_site = None
        next_side = side
        if i < planes - 1:
            # a nice plane switches bands when it can; any plane slides
            # along its band, or else switches
            other = "R" if side == "L" else "L"
            if lam and jumps[other][i] is not None:
                exit_site = jumps[other][i]
                next_side = other
            elif jumps[side][i] is not None:
                exit_site = jumps[side][i]
            elif jumps[other][i] is not None:
                exit_site = jumps[other][i]
                next_side = other
        route, traversed = _route_within_plane(_site_adjacency(grid.open[i]), entry, exit_site, lam)
        if route is None:
            break
        total.extend((i, y, x) for y, x in route)
        chained += 1
        if traversed:
            nice_traversed += 1
            min_len = min(min_len, len(lam)) if min_len else len(lam)
        if exit_site is None:
            break
        side = next_side
        entry = exit_site
    if chained < 2:
        return _fallback_glued(grid)
    return GluedPath(tuple(total), chained, nice_traversed, min_len, False)


def _fallback_glued(grid: SiteGrid) -> GluedPath:
    path = find_long_open_path(grid)
    return GluedPath(tuple(path), 0, 0, 0, True)


# ---------------------------------------------------------------------------
# oriented percolation on [0, ell]
# ---------------------------------------------------------------------------


def full_interval_initial(ell: int) -> frozenset[int]:
    """Largest parity-legal full start: every even site of [0, ell].

    Sites of odd index carry no outgoing arrows at time zero, so this start
    generates exactly the trajectories of the all-ones initial condition
    from step one onward.
    """
    return frozenset(range(0, ell + 1, 2))


def arrow_open(seed: int, i: int, k: int, direction: int, q: float) -> bool:
    """Arrow from (i, k) to (i - 1, k + 1) for direction 0, or to
    (i + 1, k + 1) for direction 1.

    The underlying uniform depends only on (seed, i, k, direction), so the
    same field serves every q.
    """
    return uniform_from_key(seed, TAG_ARROW, i, k, direction) < q


@dataclass(frozen=True)
class EdgeTrack:
    """Leftmost/rightmost occupied positions per step; None once extinct."""

    left: tuple
    right: tuple


@dataclass(frozen=True)
class OrientedRun:
    ell: int
    q: float
    horizon: int
    seed: int
    occupancy: tuple[frozenset, ...]
    arrows: dict
    extinction_step: int | None
    track: EdgeTrack


def _check_op(ell: int, q: float, steps: int, initial: Iterable[int] = ()) -> frozenset[int]:
    """The input check shared by every oriented-percolation entry point;
    returns the initial set."""
    if ell < 0 or steps < 0 or not (0.0 <= q <= 1.0):
        raise ValueError("need ell >= 0, steps >= 0 and 0 <= q <= 1")
    init = frozenset(int(i) for i in initial)
    if any(i < 0 or i > ell for i in init):
        raise ValueError("initial sites must lie in [0, ell]")
    odd = [i for i in init if i % 2 == 1]
    if odd:
        raise ValueError(f"initial sites {sorted(odd)} violate parity at time 0")
    return init


_DIRECTIONS = np.arange(2, dtype=np.uint64)
_SHIFT = np.uint64(11)


def _op_start(ell: int, initial: frozenset[int], seeds):
    """Set-up of the oriented-percolation stepper for one replica per seed
    (an int, or a uint64 array): the arrow keys mix64(seed, TAG_ARROW, i) by
    replica (rows) and site i (columns), and the step-0 occupancy."""
    keys = mix64_array(np.arange(ell + 1), state=mix64_array(seeds, TAG_ARROW)[:, None])
    occ = np.zeros(keys.shape, dtype=bool)
    occ[:, sorted(initial)] = True
    return keys, occ


def _op_step(keys: np.ndarray, t: int, occ: np.ndarray, q: float):
    """The oriented-percolation stepper: from the occupancy `occ` at step t,
    returns the flags `left` and `right` of the arrows out of step t and the
    occupancy at step t + 1.  Only the sites i with i + t even can be
    occupied, so only they are hashed: there left[r, i] is
    arrow_open(seed_r, i, t, 0, q) and right[r, i] is
    arrow_open(seed_r, i, t, 1, q), bit for bit; elsewhere both are False."""
    p = t % 2
    h = mix64_array(t, state=keys[:, p::2])
    # u < q exactly when (hash >> 11) < q * 2^53
    flags = mix64_array(_DIRECTIONS, state=h[..., None]) >> _SHIFT < q * 2.0**53
    left, right, nxt = np.zeros((3,) + occ.shape, dtype=bool)
    left[:, p::2], right[:, p::2] = flags[..., 0], flags[..., 1]
    nxt[:, :-1] = occ[:, 1:] & left[:, 1:]
    nxt[:, 1:] |= occ[:, :-1] & right[:, :-1]
    return left, right, nxt


def op_run(ell: int, q: float, initial: Iterable[int], horizon: int, seed: int) -> OrientedRun:
    """Exact trajectory of the oriented percolation up to `horizon` steps.

    Recording stops at the extinction step (the empty set is absorbing, so
    every later state is empty); `extinction_step` carries the step index.
    """
    occupancy = [_check_op(ell, q, horizon, initial)]
    arrows: dict = {}
    keys, occ = _op_start(ell, occupancy[0], seed)
    while len(occupancy) <= horizon and occupancy[-1]:
        t = len(occupancy) - 1
        go_left, go_right, occ = _op_step(keys, t, occ, q)
        for i in occupancy[-1]:
            if i > 0:
                arrows[(i, t, 0)] = bool(go_left[0, i])
            if i < ell:
                arrows[(i, t, 1)] = bool(go_right[0, i])
        occupancy.append(frozenset(occ[0].nonzero()[0].tolist()))
    extinction = None if occupancy[-1] else len(occupancy) - 1
    left = tuple(min(s) if s else None for s in occupancy)
    right = tuple(max(s) if s else None for s in occupancy)
    return OrientedRun(ell, q, horizon, seed, tuple(occupancy), arrows, extinction,
                       EdgeTrack(left, right))


@dataclass(frozen=True)
class FirstPassage:
    sigma: int | None
    censored: bool


def op_first_passage(ell: int, q: float, seed: int) -> FirstPassage:
    """First step at which site ell is occupied starting from {0}, censored
    at horizon 2*ell."""
    _check_op(ell, q, 0)
    keys, occ = _op_start(ell, frozenset({0}), seed)
    t = 0
    while not occ[0, ell]:
        if t == 2 * ell or not occ.any():
            return FirstPassage(None, True)
        occ = _op_step(keys, t, occ, q)[2]
        t += 1
    return FirstPassage(t, False)


# the exact OP routes work on occupancy subsets of each parity class, so
# their matrices have side up to 2^_EXACT_EVEN_SITES
_EXACT_EVEN_SITES = 10


def _exact_classes(ell: int) -> tuple[list[int], list[int]]:
    """The even and the odd sites of [0, ell], within the exact budget."""
    evens = list(range(0, ell + 1, 2))
    if len(evens) > _EXACT_EVEN_SITES:
        raise BudgetExceededError(
            f"{len(evens)} even sites exceed the exact budget of {_EXACT_EVEN_SITES}")
    return evens, list(range(1, ell + 1, 2))


def op_exact_survival(ell: int, q: float, t: int, initial: Iterable[int]) -> float:
    """Exact P(eta_t != empty): the start distribution over occupancy
    subsets of the even sites, carried through the class transfer matrices
    (even -> odd, then odd -> even, alternately), one vector-matrix product
    per step.

    Budget: at most _EXACT_EVEN_SITES = 10 even sites (ell <= 19), and
    any t.
    """
    init = _check_op(ell, q, t, initial)
    evens, odds = _exact_classes(ell)
    steps = (_class_transition(evens, odds, q), _class_transition(odds, evens, q))
    dist = np.zeros(1 << len(evens))
    dist[sum(1 << b for b, i in enumerate(evens) if i in init)] = 1.0
    for step in range(t):
        dist = dist @ steps[step % 2]
    return 1.0 - float(dist[0])


def _simulate_batch(ell: int, q: float, steps: int, replicas: int, seed: int,
                    initial: Iterable[int]):
    """Replica r is op_run(ell, q, initial, steps, derive_seed(seed, r)),
    run in lockstep; returns the (replicas, ell+1) occupancy after `steps`
    steps and each replica's extinction step (steps + 1 if alive)."""
    init = _check_op(ell, q, steps, initial)
    # derive_seed(seed, r) for every r
    keys, occ = _op_start(ell, init, mix64_array(seed, TAG_REPLICA, np.arange(replicas)))
    extinct_at = np.full(replicas, steps + 1)
    live = np.arange(replicas)  # the replicas still alive: the rows of keys and occ
    for t in range(steps + 1):
        alive = occ.any(axis=1)
        if not alive.all():
            extinct_at[live[~alive]] = t
            live, keys, occ = live[alive], keys[alive], occ[alive]
        if t == steps or not live.size:
            break
        occ = _op_step(keys, t, occ, q)[2]
    final = np.zeros((replicas, ell + 1), dtype=bool)
    final[live] = occ
    return final, extinct_at


def op_survival_frequency(ell: int, q: float, t: int, replicas: int, seed: int,
                          initial: Iterable[int] | None = None) -> tuple[float, float]:
    """Simulated P(eta_t != empty) with standard error."""
    if replicas < 1:
        raise ValueError("need at least one replica")
    init = full_interval_initial(ell) if initial is None else initial
    _, extinct_at = _simulate_batch(ell, q, t, replicas, seed, init)
    freq = float((extinct_at > t).mean())
    se = math.sqrt(max(freq * (1 - freq), 1.0 / replicas) / replicas)
    return freq, se


@dataclass(frozen=True)
class MidDensityEstimate:
    beta: float
    step: int
    threshold: float
    window: tuple[int, int]
    estimate: float
    se: float
    wilson: tuple[float, float]
    replicas: int


def op_mid_density_multi(ell: int, q: float, step: int, betas: Sequence[float],
                         replicas: int, seed: int) -> list[MidDensityEstimate]:
    """Empirical P(|eta_step restricted to the centered beta-window| >=
    3*beta*ell/4) from full start, one simulated batch shared by all betas
    so the estimates are coupled."""
    from .stats import wilson_interval

    if replicas < 1:
        raise ValueError("need at least one replica")
    for beta in betas:
        if not (0.0 < beta <= 1.0):
            raise ValueError("beta must lie in (0, 1]")
    occ, _ = _simulate_batch(ell, q, step, replicas, seed, full_interval_initial(ell))
    out = []
    for beta in betas:
        lo = (1.0 - beta) * ell / 2.0
        hi = (1.0 + beta) * ell / 2.0
        lo_i = math.ceil(lo - 1e-12)
        hi_i = math.floor(hi + 1e-12)
        threshold = 3.0 * beta * ell / 4.0
        counts = occ[:, lo_i:hi_i + 1].sum(axis=1)
        hits = int((counts >= threshold).sum())
        est = hits / replicas
        se = math.sqrt(max(est * (1 - est), 1.0 / replicas) / replicas)
        out.append(MidDensityEstimate(beta, step, threshold, (lo_i, hi_i), est, se,
                                      wilson_interval(hits, replicas), replicas))
    return out


# ---------------------------------------------------------------------------
# exact extinction-time profile via class transfer matrices
# ---------------------------------------------------------------------------


def _class_transition(src_sites: list[int], dst_sites: list[int], q: float) -> np.ndarray:
    """Transition matrix between occupancy subsets of two parity classes."""
    dst_index = {j: b for b, j in enumerate(dst_sites)}
    n_src, n_dst = len(src_sites), len(dst_sites)
    T = np.zeros((1 << n_src, 1 << n_dst))
    for s_mask in range(1 << n_src):
        if s_mask == 0:
            T[0, 0] = 1.0
            continue
        occupied = [src_sites[b] for b in range(n_src) if s_mask >> b & 1]
        parents: dict[int, int] = {}
        for i in occupied:
            for j in (i - 1, i + 1):
                if j in dst_index:
                    parents[j] = parents.get(j, 0) + 1
        targets = sorted(parents)
        p_occ = [1.0 - (1.0 - q) ** parents[j] for j in targets]
        for mask in range(1 << len(targets)):
            pr = 1.0
            t_mask = 0
            for b, j in enumerate(targets):
                if mask >> b & 1:
                    pr *= p_occ[b]
                    t_mask |= 1 << dst_index[j]
                else:
                    pr *= 1.0 - p_occ[b]
            if pr:
                T[s_mask, t_mask] += pr
    return T


@dataclass(frozen=True)
class OPExtinctionProfile:
    mean_steps: float
    median_steps: float


def _gth_last_mean(M: np.ndarray, exits: np.ndarray, reward: np.ndarray) -> float:
    """Expected reward collected before absorption from the last state of
    the substochastic chain M, whose rows leak `exits` to the absorbing state.

    Grassmann-Taksar-Heyman state reduction: states are censored one at a
    time, and each pivot 1 - M_kk is formed as the remaining off-diagonal
    mass plus the exit, so every step adds or multiplies nonnegative numbers
    and the answer stays accurate however close to 1 the escape rate is.
    """
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


def op_extinction_profile_exact(ell: int, q: float) -> OPExtinctionProfile:
    """Exact mean and median extinction step from the full even start.

    Works on the two-step transfer matrix of the even-step states; the mean
    comes from GTH state reduction in doubles (`_gth_last_mean`), which
    subtracts nothing and so stays exact to rounding when extinction takes
    1e16+ steps.  The median comes from the spectral form of the
    survival function where doubles can resolve it, and otherwise from the
    asymptotically exact single-slow-mode value mean*log(2).
    Budget: at most _EXACT_EVEN_SITES = 10 even sites (ell <= 19; the
    matrix side is 2^sites).
    """
    _check_op(ell, q, 0)
    if q == 1.0:
        return OPExtinctionProfile(math.inf, math.inf)
    evens, odds = _exact_classes(ell)
    A = _class_transition(evens, odds, q)
    B = _class_transition(odds, evens, q)
    AB = A @ B
    M = AB[1:, 1:]
    a1 = A[1:, 1:].sum(axis=1)  # P(next odd state nonempty | even state)
    n = M.shape[0]
    full_idx = n - 1  # the full even state, mask 2^|evens| - 1
    mean_steps = _gth_last_mean(M, AB[1:, 0], 1.0 + a1)
    # spectral survival in doubles: s(2k) = sum c_j w_j^k, odd steps add one
    # A factor; fall back to the slow-mode median when doubles cannot see
    # the decay
    v0 = np.zeros(n)
    v0[full_idx] = 1.0
    w, V = np.linalg.eig(M)
    asymptotic = mean_steps * math.log(2.0)
    if 1.0 - np.abs(w).max() < 1e-13:
        # slow mode below double resolution: the survival function is an
        # exponential with rate 1/mean up to negligible fast corrections
        return OPExtinctionProfile(mean_steps, asymptotic)
    v0V = v0 @ V
    c_even = v0V * np.linalg.solve(V, np.ones(n))
    c_odd = v0V * np.linalg.solve(V, a1)

    def survival(step: int) -> float:
        k, rem = divmod(step, 2)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            powers = np.where(w == 0, 0.0 if k > 0 else 1.0, w.astype(complex) ** k)
            powers = np.where(np.isfinite(powers), powers, 0.0)
        c = c_odd if rem else c_even
        return float(np.real((c * powers).sum()))

    lo, hi = 0, 1
    while survival(hi) > 0.5:
        lo, hi = hi, hi * 2
        if hi > 64 * max(mean_steps, 1.0):
            return OPExtinctionProfile(mean_steps, asymptotic)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if survival(mid) > 0.5:
            lo = mid
        else:
            hi = mid
    return OPExtinctionProfile(mean_steps, float(hi))


# ---------------------------------------------------------------------------
# path text dump
# ---------------------------------------------------------------------------


def path_to_text(path: Sequence[tuple[int, ...]]) -> str:
    return "\n".join(" ".join(str(c) for c in site) for site in path) + ("\n" if path else "")
