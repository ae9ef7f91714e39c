"""Point-process sampling, geometric-graph construction and the box
discretization that embeds a caterpillar of cliques into a dense cloud."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from .errors import ABOVE_ZERO, BELOW_INF, as_int, as_real
from .graphs import Graph
from .percolation import SiteGrid, find_long_open_path
from .rng import TAG_POINTS, mix64


@dataclass(frozen=True)
class GeometryConfig:
    """Geometric model: points with intensity `intensity` on the cube
    [0, n^(1/dim)]^dim, pairs connected within Euclidean distance `radius`.

    `intensity` maps an (k, dim) coordinate array to k values and must stay
    inside [lower, upper]; None means the constant intensity 1.
    """

    n: float
    radius: float
    dim: int
    intensity: Callable[[np.ndarray], np.ndarray] | None = None
    lower: float = 1.0
    upper: float = 1.0

    def __post_init__(self):
        rule, bounds = "need finite n > 0 and radius > 0", "intensity bounds need finite 0 < lower <= upper"
        lower = as_real(self.lower, bounds, ABOVE_ZERO, BELOW_INF)
        for name, value in (("dim", as_int(self.dim, "dim must be a positive integer", 1)),
                            ("n", as_real(self.n, rule, ABOVE_ZERO, BELOW_INF)),
                            ("radius", as_real(self.radius, rule, ABOVE_ZERO, math.inf)),
                            ("lower", lower), ("upper", as_real(self.upper, bounds, lower, BELOW_INF))):
            object.__setattr__(self, name, value)

    @property
    def domain_side(self) -> float:
        return self.n ** (1.0 / self.dim)


@dataclass(frozen=True)
class PointCloud:
    """Sampled coordinates inside [0, box_side]^dim."""

    points: np.ndarray  # shape (count, dim)
    box_side: float

    def __post_init__(self):
        side = as_real(self.box_side, "box_side must be finite and > 0", ABOVE_ZERO, BELOW_INF)
        object.__setattr__(self, "box_side", side)
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a (count, dim) array")
        if not np.isfinite(pts).all():
            raise ValueError("coordinates must be finite")
        if pts.size and (pts.min() < 0.0 or pts.max() > self.box_side):
            raise ValueError("coordinates leave the declared domain box")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _evaluate_intensity(cfg_intensity, lower, upper, pts: np.ndarray) -> np.ndarray:
    if cfg_intensity is None:
        return np.full(pts.shape[0], 1.0)
    vals = np.asarray(cfg_intensity(pts), dtype=float)
    tol = 1e-12 * max(1.0, upper)
    if vals.shape != (pts.shape[0],):
        raise ValueError("intensity must return one value per point")
    if vals.size and (vals.min() < lower - tol or vals.max() > upper + tol):
        bad = float(vals.min()) if vals.min() < lower - tol else float(vals.max())
        raise ValueError(
            f"intensity returned {bad:g} outside declared bounds [{lower:g}, {upper:g}]"
        )
    return vals


def sample_poisson_points(cfg: GeometryConfig, seed: int) -> PointCloud:
    """Poisson cloud with intensity cfg.intensity, realized by thinning.

    Draw N ~ Poisson(upper * n) uniform points and keep each with
    probability intensity(x)/upper; the survivors are exactly the target
    process, for any bounded intensity.
    """
    rng = np.random.default_rng(mix64(seed, TAG_POINTS, 1))
    side = cfg.domain_side
    total = rng.poisson(cfg.upper * cfg.n)
    pts = rng.random((total, cfg.dim)) * side
    vals = _evaluate_intensity(cfg.intensity, cfg.lower, cfg.upper, pts)
    keep = rng.random(total) < vals / cfg.upper
    return PointCloud(pts[keep], side)


def _pair_edges(a_pts: np.ndarray, b_pts: np.ndarray, r2: float) -> np.ndarray:
    d2 = 0.0  # summed over the axes in order, as build_rgg sums them
    for k in range(a_pts.shape[1]):
        d2 = d2 + (a_pts[:, None, k] - b_pts[None, :, k]) ** 2
    return d2 <= r2


# padded cell keys and their neighbours' keys stay below 2^62
_KEY_BITS = 62
# coordinate entries compared per block when occupied cells are paired directly
_PAIR_BLOCK = 1 << 20
_RADIUS = "radius must be positive"  # build_rgg's and embedding_is_valid's rule


def _cell_keys(pts: np.ndarray, radius: float) -> tuple[np.ndarray, int]:
    """Linear keys of each point's cell in a grid of side >= radius, padded
    by one cell on every side, and the padded grid's cells per axis.

    The side is `radius` unless the padded grid would need more than
    2^62 cells; then it widens, which still puts every pair within
    `radius` in the same or in adjacent cells.
    """
    d = pts.shape[1]
    # padded cells per axis; at most 2^31, so rounding in pts / side cannot
    # push a cell past the grid
    width = min(2**31, int(2.0 ** (_KEY_BITS / d)))
    if width < 4:
        raise ValueError(f"the cell search supports dim <= {_KEY_BITS // 2}, not {d}")
    side = max(radius, float(pts.max()) / (width - 3))
    place = width ** np.arange(d, dtype=np.int64)
    key = (np.floor(pts / side).astype(np.int64) + 1) @ place
    return key, width


def _half_steps(width: int, d: int) -> list[int]:
    """Key steps to the (3^d - 1)/2 half-neighbour cells of a cell."""
    place = [width**k for k in range(d)]
    zero = (0,) * d
    return [sum(o * p for o, p in zip(off, place))
            for off in product((-1, 0, 1), repeat=d) if off > zero]


def _range_pairs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (i, j) with lo[i] <= j < hi[i], ascending."""
    counts = hi - lo
    rows = np.repeat(np.arange(len(lo)), counts)
    cols = np.arange(int(counts.sum())) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return rows, cols


def _adjacent_cell_pairs(key: np.ndarray, first: np.ndarray, width: int, d: int):
    """Candidate pairs of positions in the ascending `key` array between
    occupied cells that are half-neighbours, where `first` holds each
    cell's first position: each cell is compared with every later occupied
    cell, coordinate by coordinate."""
    end = np.r_[first[1:], len(key)]
    coords = key[first, None] // width ** np.arange(d, dtype=np.int64) % width
    rows = max(1, _PAIR_BLOCK // (len(first) * d))
    for lo in range(0, len(first), rows):
        block = coords[lo:lo + rows]
        p, q = np.nonzero((np.abs(block[:, None, :] - coords[None, :, :]) <= 1).all(axis=2))
        p += lo
        p, q = p[q > p], q[q > p]
        pair, i = _range_pairs(first[p], end[p])  # every point of cell p
        r, j = _range_pairs(first[q][pair], end[q][pair])  # with every point of cell q
        yield i[r], j


def _candidate_pairs(key: np.ndarray, width: int, d: int):
    """Candidate pairs (i, j) of positions in the ascending `key` array:
    each point with the later points of its own cell, then with the points
    of its half-neighbour cells.  With fewer occupied cells than the
    (3^d - 1)/2 half-neighbour offsets, the occupied cells are paired
    directly; otherwise there is one batch per offset `step`, each point
    with every point of the cell `step` keys away."""
    yield _range_pairs(np.arange(1, len(key) + 1), np.searchsorted(key, key, side="right"))
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    if len(first) < (3**d - 1) // 2:
        yield from _adjacent_cell_pairs(key, first, width, d)
        return
    for step in _half_steps(width, d):
        yield _range_pairs(np.searchsorted(key, key + step, side="left"),
                           np.searchsorted(key, key + step, side="right"))


def build_rgg(cloud: PointCloud, radius: float) -> Graph:
    """Geometric graph: edge iff Euclidean distance <= radius (inclusive).

    Sorted-cell search: every point is keyed by its cell of side `radius`
    and the points are sorted by key, so each cell is one run of the
    sorted order.  `searchsorted` gives each point's candidates: the later
    points of its own cell and the points of its (3^dim - 1)/2
    half-neighbour cells.  When fewer cells are occupied than there are
    such offsets (a sparse cloud in high dimension), the occupied cells are
    compared with each other instead of visiting every offset.  A
    candidate pair is an edge when its squared distance is <= radius^2.
    Each batch of pairs gathers from per-axis coordinate columns in cell
    order and adds the squared gaps in place, axis 0 first, so the result
    equals a quadratic scan of all pairs that sums the axes in the same
    order, exactly, in any dimension.

    The edges go to `Graph.from_edges` as one (m, 2) int64 array, after
    the search's own arrays are freed: the graph keeps about 8.75 bytes
    per directed adjacency entry.  The build peaks inside `from_edges`, at
    about 25 bytes per entry counting the edge array (n = 4000, radius 6,
    d = 2); a batch's scratch, three floats per pair, stays below that.
    The cloud's points are never written.
    """
    radius = as_real(radius, _RADIUS, ABOVE_ZERO, math.inf)
    n = len(cloud)
    if n == 0:
        return Graph.from_edges(0, [])
    key, width = _cell_keys(cloud.points, radius)
    order = np.argsort(key, kind="stable")
    key = key[order]
    cols = [cloud.points[order, k] for k in range(cloud.dim)]  # contiguous, in cell order
    r2 = radius * radius
    src, dst = [], []
    for i, j in _candidate_pairs(key, width, cloud.dim):
        d2 = np.zeros(len(i))
        for c in cols:
            gap = c[i]
            gap -= c[j]
            gap *= gap
            d2 += gap
        near = d2 <= r2
        del d2, gap  # before the next batch is gathered
        src.append(order[i[near]])
        dst.append(order[j[near]])
    del key, cols, c, order, i, j, near
    edges = np.empty((sum(map(len, src)), 2), dtype=np.int64)
    np.concatenate(src, out=edges[:, 0])
    del src
    np.concatenate(dst, out=edges[:, 1])
    del dst
    return Graph.from_edges(n, edges)


@dataclass(frozen=True)
class BoxLattice:
    """Cube lattice over the domain with per-box vertex counts and open flags.

    Boundary boxes keep their true (smaller) intersection with the domain;
    a box is open when its count reaches `open_threshold`.
    """

    side: float
    dims: tuple[int, ...]
    counts: np.ndarray
    open_flags: np.ndarray
    members: dict
    open_threshold: float


def discretize_boxes(cloud: PointCloud, side: float, open_threshold: float) -> BoxLattice:
    """Box of each point, with `members` keyed by box coordinate tuples in
    order of the boxes' first points, each listing its points ascending;
    `open_threshold` is any real number but NaN."""
    side = as_real(side, "box side must be positive and finite", ABOVE_ZERO, BELOW_INF)
    open_threshold = as_real(open_threshold, "open_threshold must be a real number", -math.inf, math.inf)
    d = cloud.dim
    per_axis = max(1, math.ceil(cloud.box_side / side - 1e-12))
    dims = (per_axis,) * d
    idx = np.floor(cloud.points / side).astype(np.int64)
    np.clip(idx, 0, per_axis - 1, out=idx)
    flat = np.ravel_multi_index(idx.T, dims)
    counts = np.bincount(flat, minlength=math.prod(dims)).reshape(dims)
    # a stable sort groups the points of each box, keeping them ascending
    order = np.argsort(flat, kind="stable")
    starts = np.flatnonzero(np.diff(flat[order], prepend=-1))
    bounds = np.append(starts, len(order)).tolist()
    boxes = np.array(np.unravel_index(flat[order[starts]], dims)).T.tolist()
    members = {tuple(boxes[g]): order[bounds[g]:bounds[g + 1]]
               for g in np.argsort(order[starts]).tolist()}
    open_flags = counts >= open_threshold
    return BoxLattice(side, dims, counts, open_flags, members, open_threshold)


@dataclass(frozen=True)
class CaterpillarEmbedding:
    """A caterpillar of cliques located inside a point cloud.

    `box_path` is a simple path of open boxes; `blocks[i]` lists vertex ids
    inside box i that form a clique in the host graph, all of size
    `block_size` (larger boxes are truncated so downstream clique logic can
    assume equal sizes); `spine[i]` is the designated spine vertex, chosen
    as the first member of its block.
    """

    box_path: tuple[tuple[int, ...], ...]
    blocks: tuple[tuple[int, ...], ...]
    spine: tuple[int, ...]
    block_size: int

    @property
    def spine_length(self) -> int:
        return len(self.box_path) - 1


def find_caterpillar_embedding(cloud: PointCloud, cfg: GeometryConfig) -> CaterpillarEmbedding | None:
    """Locate a caterpillar of cliques in the cloud, or None when no open
    path of at least two boxes exists.

    The domain is cut into boxes of side R/(2*sqrt(d)) so that any two
    points in the same or in adjacent boxes sit within distance R; boxes
    holding at least half their expected-count floor mu = lower*side^d are
    declared open, and a long simple path is extracted from the open-box
    lattice.
    """
    d = cfg.dim
    side_domain = cloud.box_side
    if len(cloud) == 0:
        return None
    if cfg.radius >= math.sqrt(d) * side_domain:
        # one box covers the whole domain: everything is one clique
        ids = tuple(range(len(cloud)))
        return CaterpillarEmbedding(((0,) * d,), (ids,), (ids[0],), len(ids))
    side = cfg.radius / (2.0 * math.sqrt(d))
    mu = cfg.lower * side**d
    lattice = discretize_boxes(cloud, side, mu / 2.0)
    grid = SiteGrid(lattice.dims, lattice.open_flags, p=None, seed=None)
    path = find_long_open_path(grid)
    if len(path) < 2:
        return None
    block_size = max(1, math.ceil(mu / 2.0))
    blocks = []
    spine = []
    for box in path:
        block = tuple(int(v) for v in lattice.members[box][:block_size])
        blocks.append(block)
        spine.append(block[0])
    return CaterpillarEmbedding(tuple(path), tuple(blocks), tuple(spine), block_size)


def embedding_is_valid(emb: CaterpillarEmbedding, cloud: PointCloud, radius: float) -> bool:
    """Explicit adjacency verification: every pair inside a block and every
    pair across consecutive blocks must be within `radius`."""
    radius = as_real(radius, _RADIUS, ABOVE_ZERO, math.inf)
    pts = cloud.points
    r2 = radius * radius
    for bi, block in enumerate(emb.blocks):
        a = pts[list(block)]
        if not _pair_edges(a, a, r2).all():
            return False
        if bi + 1 < len(emb.blocks):
            b = pts[list(emb.blocks[bi + 1])]
            if not _pair_edges(a, b, r2).all():
                return False
    return True


def to_point_text(cloud: PointCloud) -> str:
    """One point per line, space-separated coordinates, 17 significant digits."""
    lines = [" ".join(f"{x:.17g}" for x in row) for row in cloud.points]
    return "\n".join(lines) + ("\n" if lines else "")


def write_points(cloud: PointCloud, path) -> None:
    with open(path, "w") as fh:
        fh.write(to_point_text(cloud))
