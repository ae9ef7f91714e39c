"""Graph queries, references and bounds that only the tests need."""

import hashlib
import math
from typing import Iterable

import numpy as np

from geocp.bounds import log_extinction_time_bound
from geocp.graphs import Graph, _bfs, _depths, to_edge_list_text
from geocp.rgg import PointCloud


def fingerprint(g: Graph) -> str:
    """Stable short digest of the edge list."""
    return hashlib.sha256(to_edge_list_text(g).encode()).hexdigest()[:12]


def build_rgg_bruteforce(cloud: PointCloud, radius: float) -> Graph:
    """Quadratic reference construction: the independent check for the
    sorted-cell builder `geocp.rgg.build_rgg`.  The squared distance is
    summed over the axes in order, as the builder sums it, in any dimension
    (numpy's `.sum(axis=1)` adds pairwise from eight axes on)."""
    pts = cloud.points
    n = len(cloud)
    r2 = radius * radius
    edges = []
    for i in range(n):
        d2 = 0.0
        for k in range(cloud.dim):
            d2 = d2 + (pts[i + 1:, k] - pts[i, k]) ** 2
        for j in np.nonzero(d2 <= r2)[0]:
            edges.append((i, i + 1 + int(j)))
    return Graph.from_edges(n, edges)


def validate(g: Graph) -> None:
    """Check symmetry, absence of self-loops and duplicates; raise on failure."""
    for v, nbrs in enumerate(g.adjacency):
        if len(set(nbrs)) != len(nbrs):
            raise ValueError(f"duplicate neighbor at vertex {v}")
        for w in nbrs:
            if w == v:
                raise ValueError(f"self-loop at vertex {v}")
            if v not in g.adjacency[w]:
                raise ValueError(f"asymmetric edge ({v},{w})")


def early_extinction_floor(v: int, e: int, lam: float) -> float:
    """Lower bound (2 + 4*lam*e/v)^(-v) on the probability that the process
    started anywhere dies within one time unit."""
    log_extinction_time_bound(v, e, lam)  # for its input rule
    return math.exp(-v * math.log(2.0 + 4.0 * lam * e / v))


def diameter(g: Graph, component: Iterable[int], exact: bool = True) -> int:
    """Diameter of the subgraph induced by `component`.

    Exact mode runs a BFS from every vertex; exact=False returns the
    double-sweep lower bound.  Disconnected inputs are rejected.
    """
    comp = set(component)
    if not comp:
        raise ValueError("component must be non-empty")
    sub = {v: [w for w in g.adjacency[v] if w in comp] for v in comp}

    def depths(source: int) -> dict:
        return _depths(_bfs(sub, [source])[0])

    first = depths(min(comp))
    if len(first) != len(comp):
        raise ValueError("component is not connected")
    far = max(first, key=lambda v: (first[v], v))
    lower = max(depths(far).values())
    if not exact:
        return lower
    return max(max(depths(v).values()) for v in comp)
