"""Graph queries that only the tests need."""

from typing import Iterable

from geocp.graphs import Graph, _bfs, _depths


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
