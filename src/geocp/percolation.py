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
  list.index, in adjacency order, over the last _NEAR_HEAD positions
  first, where the pivots mostly sit.  Step s rotates with mix64(salt, s),
  drawn _HASH_BLOCK steps at a time through `mix64_array`, and the polish
  stops as soon as every site of the start's cluster is visited, after
  which no head can extend and the best path cannot change;
* every oriented-percolation run steps through `_op_step`, which hashes a
  whole step's arrows at once for any number of replicas; replica r of a
  batch runs on the field of derive_seed(seed, r), so it is exactly the
  single run `op_run` with that seed.  Only the site grids draw from a
  numpy Generator;
* the exact oriented-percolation routes (`op_exact_survival`,
  `op_extinction_profile_exact`) take their class transfer matrices from
  `_transfer_matrices`, under one budget of _EXACT_EVEN_SITES = 10 even
  sites, i.e. ell <= 19.  The profile reads its mean (GTH state reduction)
  and its median (the survival stepped to its quasi-stationary regime,
  then a geometric tail pinned by that mean) from the same matrices;
* the GTH reduction censors states in panels of _GTH_PANEL and adds each
  panel's products to the trailing block in one `np.einsum`, not `@`:
  under matmul the ell = 16, q = 0.7 mean changed in its last bit between
  one and two OpenBLAS threads, and einsum's own loop gives the same bytes
  under any thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetExceededError, as_int, as_real, as_vertex_set
from .graphs import _bfs, _components, _depths
from .rng import TAG_ARROW, TAG_CROSSING, TAG_REPLICA, TAG_SITE, mix64, mix64_array

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
        object.__setattr__(self, "dims", _grid_dims(self.dims))
        if tuple(self.open.shape) != tuple(self.dims):
            raise ValueError("open field shape does not match dims")
        if self.open.dtype != bool:
            raise ValueError(f"open field must be a bool array, not {self.open.dtype}")


def _grid_dims(dims: Sequence[int]) -> tuple[int, ...]:
    return tuple(as_int(d, "dims must be positive integers", 1) for d in dims)


def sample_uniform_field(dims: Sequence[int], seed: int) -> np.ndarray:
    """Uniform marks per site; thresholding at p gives coupled site grids
    that are monotone in p."""
    rng = np.random.default_rng(mix64(seed, TAG_SITE))
    return rng.random(_grid_dims(dims))


def grid_from_field(field_arr: np.ndarray, p: float, seed: int | None = None) -> SiteGrid:
    p = as_real(p, "p must lie in [0, 1]", 0.0, 1.0)
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


def _dfs_deep_path(order, start: int) -> list[int]:
    """Deepest root-to-leaf chain of the depth-first tree from `start` that
    visits the neighbors of v in the order order[v].

    Any root-leaf chain of a DFS tree is a simple path in the graph;
    depth-first exploration of grid-like clusters produces snake-like
    trunks whose depth grows linearly with the cluster, which makes this
    the scalable backbone of the heuristic.
    """
    parent = [-2] * len(order)
    parent[start] = -1
    stack = [start]  # the current chain, with the neighbor iterator of each
    iters = [iter(order[start])]
    deepest, best_depth = start, 1
    while iters:
        for w in iters[-1]:
            if parent[w] == -2:
                break
        else:
            iters.pop()
            stack.pop()
            continue
        parent[w] = stack[-1]
        stack.append(w)
        iters.append(iter(order[w]))
        if len(stack) > best_depth:
            best_depth = len(stack)
            deepest = w
    path = [deepest]
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    path.reverse()
    return path


_NEAR_HEAD = 256  # path positions next to the head searched before the whole path
_HASH_BLOCK = 256  # rotation hashes drawn per mix64_array call


def _polish(path: list[int], adj, n_sites: int, comp_size: int, salt: int,
            failure_budget: int, max_steps: int) -> list[int]:
    """Extend both ends of the simple path greedily, re-pointing stuck heads
    with random Posa rotations and burning hopeless pendant heads; returns
    the best path seen within the budgets.

    A rotation picks a path vertex v adjacent to the head and reverses the
    segment after v, which turns v's successor into the new head; step s
    picks with mix64(salt, s).  A burned head leaves the path but stays
    visited, so it is never re-entered.  Once all `comp_size` sites of the
    path's cluster are visited no head can extend again, so the search stops.
    """
    visited = bytearray(n_sites)
    on_path = bytearray(n_sites)
    for v in path:
        visited[v] = on_path[v] = 1
    n_visited = len(path)
    best = list(path)
    hash_from = hash_to = 0  # hashes[j] is mix64(salt, hash_from + j)
    steps = 0
    failures = 0
    while steps < max_steps and failures < failure_budget and n_visited < comp_size:
        steps += 1
        if steps % 2 == 0:
            path.reverse()
        head = path[-1]
        for w in adj[head]:
            if not visited[w]:
                break
        else:
            # pivots: the head's path neighbors other than its predecessor,
            # looked up next to the head first
            pred = path[-2] if len(path) > 1 else -1
            near = max(0, len(path) - _NEAR_HEAD)
            cands = []
            for v in adj[head]:
                if on_path[v] and v != pred:
                    try:
                        cands.append(path.index(v, near))
                    except ValueError:
                        cands.append(path.index(v))
            failures += 1
            if cands:
                if steps >= hash_to:
                    hash_from, hash_to = steps, steps + _HASH_BLOCK
                    hashes = mix64_array(salt, np.arange(hash_from, hash_to)).tolist()
                i = cands[hashes[steps - hash_from] % len(cands)]
                path[i + 1:] = path[:i:-1]
            elif len(path) > 1:
                on_path[path.pop()] = 0
            continue
        n_visited += _greedy_extend(path, visited, on_path, adj)
        failures = 0
        if len(path) > len(best):
            best = list(path)
    return best


def _grow_from(start: int, adj, orders, n_sites: int, comp_size: int, salt: int = 0,
               failure_budget: int = 400) -> list[int]:
    """`orders` holds the neighbor lists sorted ascending, then descending;
    `comp_size` counts the open cluster of `start`."""
    max_steps = 25 * n_sites + 2000
    best: list[int] = [start]
    # double sweep: deep DFS chain, then a second DFS from its far end
    for descending, order in enumerate(orders):
        first = _dfs_deep_path(order, start)
        second = _dfs_deep_path(order, first[-1])
        seedpath = second if len(second) > len(first) else first
        polished = _polish(seedpath, adj, n_sites, comp_size, mix64(salt, descending),
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
    ascending = [sorted(nbrs) for nbrs in adj]
    orders = (ascending, [nbrs[::-1] for nbrs in ascending])
    best: list[int] = []
    for si, s in enumerate(starts):
        path = _grow_from(s, adj, orders, flat_open.size, len(comp), salt=si)
        if len(path) > len(best):
            best = path
    sites = np.argwhere(grid.open).tolist()
    return [tuple(sites[v]) for v in best]


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
    if n > as_int(budget, "budget must be a non-negative integer"):
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
    rule = f"axis must be an integer in 0..{len(grid.dims) - 1}"
    if as_int(axis, rule) >= len(grid.dims):
        raise ValueError(f"{rule}, not {axis}")
    _, adj = _open_adjacency(grid.open)
    along = np.argwhere(grid.open)[:, axis]
    sources = np.flatnonzero(along == 0).tolist()
    targets = set(np.flatnonzero(along == grid.dims[axis] - 1).tolist())
    return _bfs(adj, sources, targets=targets)[1] is not None


_REPLICAS = "need an integer count of at least one replica"


def _binomial_se(freq: float, trials: int) -> float:
    """Standard error of a frequency over `trials` Bernoulli trials, floored
    at its value for one success in `trials` so that 0 and 1 keep an error."""
    return math.sqrt(max(freq * (1.0 - freq), 1.0 / trials) / trials)


def crossing_frequency(dims: Sequence[int], p: float, replicas: int, seed: int,
                       axis: int = 0) -> tuple[float, float]:
    """Monte Carlo crossing probability with its standard error."""
    replicas = as_int(replicas, _REPLICAS, 1)
    hits = 0
    for r in range(replicas):
        grid = sample_site_grid(dims, p, mix64(seed, TAG_CROSSING, r))
        hits += has_crossing(grid, axis)
    f = hits / replicas
    return f, _binomial_se(f, replicas)


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
    return frozenset(range(0, as_int(ell, "ell must be a non-negative integer") + 1, 2))


@dataclass(frozen=True)
class OrientedRun:
    ell: int
    q: float
    horizon: int
    seed: int
    occupancy: tuple[frozenset, ...]
    arrows: dict
    extinction_step: int | None


def _check_op(ell: int, q: float, steps: int, initial: Iterable[int] = ()
              ) -> tuple[int, float, int, frozenset[int]]:
    """The input check shared by every oriented-percolation entry point;
    returns ell, q, steps and the initial set."""
    rule = "need integers ell >= 0 and steps >= 0, and 0 <= q <= 1"
    ell, steps = as_int(ell, rule), as_int(steps, rule)
    q = as_real(q, rule, 0.0, 1.0)
    init = as_vertex_set(initial, ell + 1, f"initial sites must be integers in [0, {ell}]")
    odd = [i for i in init if i % 2 == 1]
    if odd:
        raise ValueError(f"initial sites {sorted(odd)} violate parity at time 0")
    return ell, q, steps, init


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
    returns the flags of the arrows out of step t and the occupancy at step
    t + 1.  Only the sites i with i + t even can be occupied, so only they
    are hashed: flags[r, i // 2, d] is uniform_from_key(seed_r, TAG_ARROW,
    i, t, d) < q, bit for bit, for the arrow of direction d = 0 to (i - 1,
    t + 1) and d = 1 to (i + 1, t + 1)."""
    p = t % 2
    h = mix64_array(t, state=keys[:, p::2])
    # u < q exactly when (hash >> 11) < q * 2^53
    flags = mix64_array(_DIRECTIONS, state=h[..., None]) >> _SHIFT < q * 2.0**53
    here = occ[:, p::2]
    nxt = np.zeros((len(occ), occ.shape[1] + 2), dtype=bool)  # site i in column i + 1
    nxt[:, p:-2:2] = here & flags[..., 0]
    nxt[:, p + 2::2] |= here & flags[..., 1]
    return flags, nxt[:, 1:-1]


def op_run(ell: int, q: float, initial: Iterable[int], horizon: int, seed: int) -> OrientedRun:
    """Exact trajectory of the oriented percolation up to `horizon` steps.

    Recording stops at the extinction step (the empty set is absorbing, so
    every later state is empty); `extinction_step` carries the step index.
    """
    ell, q, horizon, init = _check_op(ell, q, horizon, initial)
    occupancy = [init]
    arrows: dict = {}
    keys, occ = _op_start(ell, init, seed)
    while len(occupancy) <= horizon and occupancy[-1]:
        t = len(occupancy) - 1
        flags, occ = _op_step(keys, t, occ, q)
        for i in occupancy[-1]:
            if i > 0:
                arrows[(i, t, 0)] = bool(flags[0, i // 2, 0])
            if i < ell:
                arrows[(i, t, 1)] = bool(flags[0, i // 2, 1])
        occupancy.append(frozenset(occ[0].nonzero()[0].tolist()))
    extinction = None if occupancy[-1] else len(occupancy) - 1
    return OrientedRun(ell, q, horizon, seed, tuple(occupancy), arrows, extinction)


@dataclass(frozen=True)
class FirstPassage:
    sigma: int | None
    censored: bool


def op_first_passage(ell: int, q: float, seed: int) -> FirstPassage:
    """First step at which site ell is occupied starting from {0}, censored
    at horizon 2*ell."""
    ell, q, _, _ = _check_op(ell, q, 0)
    keys, occ = _op_start(ell, frozenset({0}), seed)
    t = 0
    while not occ[0, ell]:
        if t == 2 * ell or not occ.any():
            return FirstPassage(None, True)
        occ = _op_step(keys, t, occ, q)[1]
        t += 1
    return FirstPassage(t, False)


# the exact OP routes work on occupancy subsets of each parity class, so
# their matrices have side up to 2^_EXACT_EVEN_SITES
_EXACT_EVEN_SITES = 10


def _class_transition(src_sites: list[int], dst_sites: list[int], q: float) -> np.ndarray:
    """Transition matrix between occupancy subsets of two parity classes.

    T[s, t] is the product, over the destination sites j in ascending
    order, of p_j(s) when t holds j and 1 - p_j(s) otherwise, where
    p_j(s) = 1 - (1 - q)^c for the c in {0, 1, 2} parents of j in s.
    """
    open_by_parents = np.array([1.0 - (1.0 - q) ** c for c in range(3)])
    held = np.arange(1 << len(src_sites))[:, None] >> np.arange(len(src_sites)) & 1
    links = np.abs(np.subtract.outer(src_sites, dst_sites)) == 1
    p = open_by_parents[held @ links.astype(int)]
    T = np.ones((len(held), 1))
    for j in range(len(dst_sites)):  # bit j of the destination index
        T = np.hstack((T * (1.0 - p[:, j, None]), T * p[:, j, None]))
    return T


def _transfer_matrices(ell: int, q: float) -> tuple[np.ndarray, np.ndarray]:
    """The class transfer matrices of [0, ell]: A from the even sites to the
    odd ones, B back.  Bit b of a state index is site 2b, resp. 2b + 1."""
    evens = list(range(0, ell + 1, 2))
    if len(evens) > _EXACT_EVEN_SITES:
        raise BudgetExceededError(
            f"{len(evens)} even sites exceed the exact budget of {_EXACT_EVEN_SITES}")
    odds = list(range(1, ell + 1, 2))
    return _class_transition(evens, odds, q), _class_transition(odds, evens, q)


def op_exact_survival(ell: int, q: float, t: int, initial: Iterable[int]) -> float:
    """Exact P(eta_t != empty): the start distribution over occupancy
    subsets of the even sites, carried through the class transfer matrices
    (even -> odd, then odd -> even, alternately), one vector-matrix product
    per step.

    Budget: at most _EXACT_EVEN_SITES = 10 even sites (ell <= 19), and
    any t.
    """
    ell, q, t, init = _check_op(ell, q, t, initial)
    steps = _transfer_matrices(ell, q)
    dist = np.zeros(len(steps[0]))
    dist[sum(1 << (i // 2) for i in init)] = 1.0
    for step in range(t):
        dist = dist @ steps[step % 2]
    return 1.0 - float(dist[0])


def _simulate_batch(ell: int, q: float, steps: int, replicas: int, seed: int,
                    initial: Iterable[int]):
    """Replica r is op_run(ell, q, initial, steps, derive_seed(seed, r)),
    run in lockstep; returns the (replicas, ell+1) occupancy after `steps`
    steps and each replica's extinction step (steps + 1 if alive)."""
    ell, q, steps, init = _check_op(ell, q, steps, initial)
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
        occ = _op_step(keys, t, occ, q)[1]
    final = np.zeros((replicas, ell + 1), dtype=bool)
    final[live] = occ
    return final, extinct_at


def op_survival_frequency(ell: int, q: float, t: int, replicas: int, seed: int,
                          initial: Iterable[int] | None = None) -> tuple[float, float]:
    """Simulated P(eta_t != empty) with standard error."""
    replicas = as_int(replicas, _REPLICAS, 1)
    ell, q, t, _ = _check_op(ell, q, t)  # before full_interval_initial reads ell
    init = full_interval_initial(ell) if initial is None else initial
    _, extinct_at = _simulate_batch(ell, q, t, replicas, seed, init)
    freq = float((extinct_at > t).mean())
    return freq, _binomial_se(freq, replicas)


# ---------------------------------------------------------------------------
# exact extinction-time profile via class transfer matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OPExtinctionProfile:
    mean_steps: float
    median_steps: float


_GTH_PANEL = 16  # states censored per rank-_GTH_PANEL update of the trailing block


def _gth_last_mean(M: np.ndarray, exits: np.ndarray, reward: np.ndarray) -> float:
    """Expected reward collected before absorption from the last state of
    the substochastic chain M, whose rows leak `exits` to the absorbing state.

    Grassmann-Taksar-Heyman state reduction: states are censored one at a
    time, and each pivot 1 - M_kk is formed as the remaining off-diagonal
    mass plus the exit, so every step adds or multiplies nonnegative numbers
    and the answer stays accurate however close to 1 the escape rate is.
    The states go in panels of _GTH_PANEL: each pivot updates the panel's
    columns and rows, the exits and the rewards, and the panel's products
    reach the trailing block in one sum, taken with np.einsum because
    matmul's last bits depend on the BLAS thread count.
    """
    n = len(M)
    P = M.copy()
    np.fill_diagonal(P, 0.0)
    exits = exits.copy()
    reward = reward.copy()
    for k0 in range(0, n - 1, _GTH_PANEL):
        k1 = min(k0 + _GTH_PANEL, n - 1)
        F = np.empty((n - k1, k1 - k0))
        for k in range(k0, k1):
            f = P[k + 1:, k] / (P[k, k + 1:].sum() + exits[k])
            P[k + 1:, k + 1:k1] += np.outer(f, P[k, k + 1:k1])
            P[k + 1:k1, k1:] += np.outer(f[:k1 - k - 1], P[k, k1:])
            exits[k + 1:] += f * exits[k]
            reward[k + 1:] += f * reward[k]
            F[:, k - k0] = f[k1 - k - 1:]
        P[k1:, k1:] += np.einsum("ik,kj->ij", F, P[k0:k1, k1:])
    return float(reward[-1] / exits[-1])


# L1 change of the conditioned even-step law between two-steps below which
# the survival tail is taken as geometric; it must exceed the rounding noise
# of a law over 2^_EXACT_EVEN_SITES - 1 states
_QUASI_STATIONARY_TOL = 1e-12


def op_extinction_profile_exact(ell: int, q: float) -> OPExtinctionProfile:
    """Exact mean and median extinction step from the full even start.

    Both come from the two-step transfer matrix M of the nonempty even-step
    states.  The mean comes from GTH state reduction in doubles
    (`_gth_last_mean`), which subtracts nothing and so stays exact to
    rounding when extinction takes 1e16+ steps.  The median steps the
    even-step law v from the full start: the survival is v.sum() at step 2k
    and v @ a1 at step 2k + 1, where a1 is the chance that the next odd
    state is nonempty.  Once the conditioned law v / v.sum() stops changing,
    i.e. has reached the quasi-stationary law, the survival is geometric,
    and its two-step leak is pinned by the exact mean, which is the sum of
    the survival over every step; the first steps of the tail at or below
    1/2 then follow in closed form.  (A leak read off the law or an
    eigenvalue of M carries an absolute error near 1e-16, which is a large
    relative one where the leak is small.)
    Budget: at most _EXACT_EVEN_SITES = 10 even sites (ell <= 19; the
    matrix side is 2^sites).
    """
    ell, q, _, _ = _check_op(ell, q, 0)
    if q == 1.0:
        return OPExtinctionProfile(math.inf, math.inf)
    A, B = _transfer_matrices(ell, q)
    AB = A @ B
    M = AB[1:, 1:]
    a1 = A[1:, 1:].sum(axis=1)
    mean_steps = _gth_last_mean(M, AB[1:, 0], 1.0 + a1)
    v = np.zeros(len(M))
    v[-1] = 1.0  # the full even state, mask 2^|evens| - 1
    law = np.zeros(len(M))
    passed = 0.0  # the survival summed over the steps before 2k
    k = 0
    while True:
        s_even = float(v.sum())
        if s_even <= 0.5:
            return OPExtinctionProfile(mean_steps, float(2 * k))
        s_odd = float(v @ a1)
        if s_odd <= 0.5:
            return OPExtinctionProfile(mean_steps, float(2 * k + 1))
        law, previous = v / s_even, law
        if np.abs(law - previous).sum() <= _QUASI_STATIONARY_TOL:
            break
        passed += s_even + s_odd
        v = v @ M
        k += 1
    # s(2k + 2m) = s_even (1 - leak)^m and s(2k + 2m + 1) = s_odd (1 - leak)^m,
    # whose sum over m >= 0 is the mean less the steps already passed
    leak = (s_even + s_odd) / (mean_steps - passed)
    decay = math.log1p(-leak)
    m_even = math.ceil(math.log(0.5 / s_even) / decay)
    m_odd = math.ceil(math.log(0.5 / s_odd) / decay)
    return OPExtinctionProfile(mean_steps, float(min(2 * (k + m_even), 2 * (k + m_odd) + 1)))


# ---------------------------------------------------------------------------
# path text dump
# ---------------------------------------------------------------------------


def path_to_text(path: Sequence[tuple[int, ...]]) -> str:
    return "\n".join(" ".join(str(c) for c in site) for site in path) + ("\n" if path else "")
