"""Immutable graphs, deterministic constructions and structural queries."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import as_int
from .rng import TAG_EXTRA_EDGE, TAG_PRUFER, mix64


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with dense integer vertex ids 0..n-1.

    `adjacency[v]` is the sorted tuple of neighbors of v.  Instances are
    immutable after construction and safe to share between workers.
    """

    adjacency: tuple[tuple[int, ...], ...]
    vertex_count: int = field(init=False)
    edge_count: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "vertex_count", len(self.adjacency))
        degree_sum = sum(len(nbrs) for nbrs in self.adjacency)
        if degree_sum % 2 != 0:
            raise ValueError("adjacency is not symmetric: odd degree sum")
        object.__setattr__(self, "edge_count", degree_sum // 2)

    @classmethod
    def from_edges(cls, vertex_count: int, edges: np.ndarray | Iterable[tuple[int, int]]) -> "Graph":
        """Graph on `vertex_count` vertices from an (m, 2) integer array or
        any iterable of integer pairs.

        Duplicates and reversed pairs collapse into one edge.  The first
        out-of-range or self-loop pair raises ValueError, as does a
        non-integer array, which is never cast.  `edges` is never written.

        Every adjacency tuple points at one shared `int` per vertex id, so
        the graph keeps about 8.75 bytes per directed entry (n = 4000,
        mean degree 106).  The sort key is int32 while n^2 < 2^31 and int64
        beyond; it is freed before the tuples are built, so the call peaks
        at about 17 bytes per entry beyond its input: the object array of
        neighbour ids beside the tuples.
        """
        n = as_int(vertex_count, "vertex_count must be a non-negative integer")
        arr = edges if isinstance(edges, np.ndarray) else np.array(list(edges))
        if arr.size == 0:
            arr = np.empty((0, 2), dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be (a, b) pairs")
        if arr.dtype.kind not in "iu":
            raise ValueError(f"edges must be integer vertex ids, not {arr.dtype}")
        a, b = arr[:, 0], arr[:, 1]
        outside = (a < 0) | (a >= n) | (b < 0) | (b >= n)
        bad = outside | (a == b)
        if bad.any():
            k = int(bad.argmax())
            ak, bk = int(a[k]), int(b[k])
            if outside[k]:
                raise ValueError(f"edge ({ak},{bk}) out of range for {n} vertices")
            raise ValueError(f"self-loop at vertex {ak}")
        del outside, bad
        dtype = np.int32 if n * n < 2**31 else np.int64
        a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
        # both directions keyed src*n + dst, in int32 while n^2 fits: one
        # sort orders them, and duplicates, now adjacent, drop out
        m = len(a)
        key = np.empty(2 * m, dtype=dtype)
        np.multiply(a, n, out=key[:m])
        key[:m] += b
        np.multiply(b, n, out=key[m:])
        key[m:] += a
        del arr, a, b
        key.sort()
        dup = key[1:] == key[:-1]
        if dup.any():
            key = key[np.r_[True, ~dup]]
        del dup
        # bounds in the key's dtype, which searchsorted would otherwise copy
        ends = np.searchsorted(key, np.arange(1, n + 1, dtype=dtype) * n).tolist()
        key %= n
        # index one object array of the n ids: every tuple shares its ints
        flat = np.arange(n).astype(object)[key]
        del key
        return cls(tuple(tuple(flat[s:e].tolist()) for s, e in zip([0] + ends[:-1], ends)))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (a, b) with a < b, ascending."""
        return [(a, b) for a in range(self.vertex_count) for b in self.adjacency[a] if a < b]


def build_complete(m: int) -> Graph:
    """Complete graph on m >= 1 vertices."""
    m = as_int(m, "a complete graph needs a positive integer vertex count", 1)
    ids = list(range(m))  # one int object per vertex, shared by every tuple
    return Graph(tuple(tuple(w for w in ids if w != v) for v in range(m)))


@dataclass(frozen=True)
class CaterpillarSpec:
    """Spine path of `spine_length`+1 vertices, each with its own clique.

    Convention: the spine vertex is adjacent to every vertex of its clique
    but is not a member of it, so the graph has
    (spine_length+1)*(clique_size+1) vertices.
    """

    spine_length: int
    clique_size: int

    def __post_init__(self):
        object.__setattr__(self, "spine_length",
                           as_int(self.spine_length, "spine_length must be a non-negative integer"))
        object.__setattr__(self, "clique_size",
                           as_int(self.clique_size, "clique_size must be a positive integer", 1))

    @property
    def vertex_count(self) -> int:
        return (self.spine_length + 1) * (self.clique_size + 1)

    @property
    def edge_count(self) -> int:
        m = self.clique_size
        per_block = m + m * (m - 1) // 2
        return self.spine_length + (self.spine_length + 1) * per_block


@dataclass(frozen=True)
class CaterpillarGraph:
    """Caterpillar graph plus the side table of spine/clique labels."""

    graph: Graph
    spine: tuple[int, ...]
    cliques: tuple[tuple[int, ...], ...]

    @property
    def spine_length(self) -> int:
        return len(self.spine) - 1

    @property
    def clique_size(self) -> int:
        return len(self.cliques[0])


def build_caterpillar(spec: CaterpillarSpec) -> CaterpillarGraph:
    """Build the caterpillar; spine vertices are 0..L, cliques follow."""
    ell, m = spec.spine_length, spec.clique_size
    edges: list[tuple[int, int]] = [(i, i + 1) for i in range(ell)]
    spine = tuple(range(ell + 1))
    cliques = []
    base = ell + 1
    for i in range(ell + 1):
        block = tuple(range(base + i * m, base + (i + 1) * m))
        cliques.append(block)
        edges.extend((i, w) for w in block)
        edges.extend((a, b) for ai, a in enumerate(block) for b in block[ai + 1:])
    g = Graph.from_edges(spec.vertex_count, edges)
    return CaterpillarGraph(g, spine, tuple(cliques))


def _bfs(adjacency, sources: Iterable, blocked=(), targets=()):
    """Breadth-first search of `adjacency` (neighbor lists indexed by vertex)
    from `sources`, never entering a `blocked` vertex.

    Returns (parent, hit): `parent` maps every reached vertex to its
    predecessor (None for a source) in visit order, and `hit` is the first
    vertex of `targets` dequeued, where the search stops (None if none is).
    """
    parent = dict.fromkeys(s for s in sources if s not in blocked)
    queue = deque(parent)
    while queue:
        v = queue.popleft()
        if v in targets:
            return parent, v
        for w in adjacency[v]:
            if w not in parent and w not in blocked:
                parent[w] = v
                queue.append(w)
    return parent, None


def _depths(parent: dict) -> dict:
    """BFS depth of every vertex of a `_bfs` parent map."""
    depth = {}
    for v, u in parent.items():
        depth[v] = 0 if u is None else depth[u] + 1
    return depth


def _components(adjacency) -> list[list[int]]:
    """Vertex lists of the connected components of vertices 0..n-1, largest
    first, ties broken by smallest vertex id."""
    seen: set[int] = set()
    comps = []
    for s in range(len(adjacency)):
        if s not in seen:
            comps.append(list(_bfs(adjacency, [s])[0]))
            seen.update(comps[-1])
    comps.sort(key=len, reverse=True)  # stable: equal sizes stay by smallest id
    return comps


def random_connected_graph(vertex_count: int, extra_edges: int, seed: int) -> Graph:
    """Random connected graph: uniform labeled tree plus extra random edges."""
    n = as_int(vertex_count, "vertex_count must be a positive integer", 1)
    extra_edges = as_int(extra_edges, "extra_edges must be a non-negative integer")
    if n == 1:
        return Graph.from_edges(1, [])
    edges: set[tuple[int, int]] = set()
    if n == 2:
        edges.add((0, 1))
    else:
        # Pruefer decoding of a uniform random sequence
        seq = [mix64(seed, TAG_PRUFER, i) % n for i in range(n - 2)]
        degree = [1] * n
        for s in seq:
            degree[s] += 1
        import heapq

        leaves = [v for v in range(n) if degree[v] == 1]
        heapq.heapify(leaves)
        for s in seq:
            leaf = heapq.heappop(leaves)
            edges.add((min(leaf, s), max(leaf, s)))
            degree[s] -= 1
            if degree[s] == 1:
                heapq.heappush(leaves, s)
        u = heapq.heappop(leaves)
        v = heapq.heappop(leaves)
        edges.add((min(u, v), max(u, v)))
    non_edges = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
    k = 0
    while extra_edges > 0 and non_edges:
        idx = mix64(seed, TAG_EXTRA_EDGE, k) % len(non_edges)
        edges.add(non_edges.pop(idx))
        extra_edges -= 1
        k += 1
    return Graph.from_edges(n, sorted(edges))


def to_edge_list_text(g: Graph) -> str:
    """Deterministic text export: header 'v=<count>' then 'a b' lines, a < b."""
    lines = [f"v={g.vertex_count}"]
    lines.extend(f"{a} {b}" for a, b in g.edges())
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("v="):
        raise ValueError("edge list must start with a 'v=<count>' header")
    n = int(lines[0][2:])
    edges = []
    for ln in lines[1:]:
        a, b = ln.split()
        edges.append((int(a), int(b)))
    return Graph.from_edges(n, edges)


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w") as fh:
        fh.write(to_edge_list_text(g))


def read_edge_list(path) -> Graph:
    with open(path) as fh:
        return from_edge_list_text(fh.read())
