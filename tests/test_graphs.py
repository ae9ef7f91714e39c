import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geocp.graphs import (CaterpillarSpec, Graph, _components, build_caterpillar,
                          build_complete, from_edge_list_text, random_connected_graph,
                          to_edge_list_text)
from graph_helpers import diameter, validate


def test_complete_counts():
    g = build_complete(4)
    assert g.vertex_count == 4 and g.edge_count == 6
    g1 = build_complete(1)
    assert g1.vertex_count == 1 and g1.edge_count == 0
    assert build_complete(2).edges() == [(0, 1)]
    with pytest.raises(ValueError):
        build_complete(0)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])
    g = Graph.from_edges(3, [(0, 1), (1, 0)])  # duplicates collapse
    assert g.edge_count == 1
    validate(g)


def test_caterpillar_example_counts():
    cat = build_caterpillar(CaterpillarSpec(1, 3))
    assert cat.graph.vertex_count == 8
    assert cat.graph.edge_count == 13
    tiny = build_caterpillar(CaterpillarSpec(0, 1))
    assert tiny.graph.vertex_count == 2 and tiny.graph.edge_count == 1
    cat2 = build_caterpillar(CaterpillarSpec(2, 2))
    assert len(cat2.graph.adjacency[cat2.spine[1]]) == 4  # 2 spine + 2 clique neighbors


def test_caterpillar_closed_forms_and_connectivity():
    for ell in range(0, 11):
        for m in range(1, 11):
            spec = CaterpillarSpec(ell, m)
            cat = build_caterpillar(spec)
            validate(cat.graph)
            assert cat.graph.vertex_count == (ell + 1) * (m + 1)
            assert cat.graph.edge_count == ell + (ell + 1) * (m + m * (m - 1) // 2)
            assert len(_components(cat.graph.adjacency)) == 1


def test_caterpillar_labels_retrievable():
    cat = build_caterpillar(CaterpillarSpec(3, 4))
    assert len(cat.spine) == 4
    assert len(cat.cliques) == 4
    for x, block in zip(cat.spine, cat.cliques):
        assert len(block) == 4
        for v in block:
            assert v in cat.graph.adjacency[x]
            assert x not in block


def test_caterpillar_diameter_exhaustive():
    for ell in range(1, 9):
        for m in range(1, 9):
            cat = build_caterpillar(CaterpillarSpec(ell, m))
            comp = set(range(cat.graph.vertex_count))
            assert diameter(cat.graph, comp) == ell + 2


def test_connected_components_cases():
    g = Graph.from_edges(3, [(0, 1)])
    assert _components(g.adjacency) == [[0, 1], [2]]
    assert _components(Graph.from_edges(0, []).adjacency) == []
    assert _components(build_complete(5).adjacency) == [[0, 1, 2, 3, 4]]


def test_diameter_cases():
    path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert diameter(path4, {0, 1, 2, 3}) == 3
    assert diameter(build_complete(6), set(range(6))) == 1
    assert diameter(Graph.from_edges(1, []), {0}) == 0
    with pytest.raises(ValueError):
        diameter(Graph.from_edges(3, [(0, 1)]), {0, 1, 2})
    # double-sweep fast path is a lower bound
    assert diameter(path4, {0, 1, 2, 3}, exact=False) <= 3


def test_edge_list_roundtrip_deterministic():
    g = random_connected_graph(7, 2, 12345)
    text = to_edge_list_text(g)
    assert text.startswith("v=7\n")
    assert text == to_edge_list_text(from_edge_list_text(text))
    g2 = from_edge_list_text(text)
    assert g2.adjacency == g.adjacency


def test_random_connected_graph_properties():
    for seed in range(30):
        n = 3 + seed % 5
        g = random_connected_graph(n, seed % 3, seed)
        validate(g)
        assert len(_components(g.adjacency)) == 1
        assert g.edge_count >= n - 1


def test_from_edges_input_forms():
    pairs = [(0, 1), (2, 1), (3, 0), (1, 3)]
    ref = Graph.from_edges(4, pairs)
    assert ref.adjacency == ((1, 3), (0, 2, 3), (1,), (0, 1))
    for dtype in (np.int64, np.int32, np.uint16):
        assert Graph.from_edges(4, np.array(pairs, dtype=dtype)) == ref
    assert Graph.from_edges(4, ((a, b) for a, b in pairs)) == ref
    assert Graph.from_edges(4, iter([[0, 1], [1, 2], [3, 0], [1, 3], [2, 1]])) == ref
    assert all(type(v) is int for nbrs in Graph.from_edges(4, np.array(pairs)).adjacency
               for v in nbrs)
    # duplicates and reversed pairs collapse
    assert Graph.from_edges(4, pairs + [(1, 0), (1, 2), (0, 3)] * 3) == ref
    assert Graph.from_edges(3, np.empty((0, 2), dtype=np.int64)).adjacency == ((), (), ())
    assert Graph.from_edges(0, np.empty((0, 2), dtype=np.int64)).vertex_count == 0
    assert Graph.from_edges(0, []).adjacency == ()
    assert Graph.from_edges(1, []).adjacency == ((),)


@st.composite
def _edge_lists(draw):
    """(n, pairs): pairs among vertices base..n-1, with duplicates and
    reversed pairs; base 1000 puts the ids past CPython's small-int cache."""
    base = draw(st.sampled_from([0, 1000]))
    k = draw(st.integers(2, 24))
    pairs = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
                          .filter(lambda p: p[0] != p[1]), max_size=80))
    pairs += [(b, a) for a, b in pairs[::3]] + pairs[::4]
    return base + k, [(base + a, base + b) for a, b in pairs]


@settings(max_examples=60, deadline=None)
@given(_edge_lists())
def test_from_edges_matches_a_set_reference(case):
    n, pairs = case
    ref = [set() for _ in range(n)]
    for a, b in pairs:
        ref[a].add(b)
        ref[b].add(a)
    expected = tuple(tuple(sorted(nbrs)) for nbrs in ref)
    arrays = [np.array(pairs, dtype=dt).reshape(-1, 2) for dt in (np.int64, np.int32, np.uint16)]
    copies = [arr.copy() for arr in arrays]
    for form in arrays + [pairs, (p for p in pairs)]:
        adj = Graph.from_edges(n, form).adjacency
        assert adj == expected
        assert all(type(w) is int for nbrs in adj for w in nbrs)
        # one shared int object per vertex id
        assert len({id(w) for nbrs in adj for w in nbrs}) == len({w for nbrs in adj for w in nbrs})
    for arr, copy in zip(arrays, copies):
        assert arr.dtype == copy.dtype and np.array_equal(arr, copy)


def test_from_edges_at_the_key_width_boundary():
    # 46340^2 < 2^31 <= 46341^2: the first sorts int32 keys, the second
    # int64, and edges among the top ids carry the largest keys of each
    for n in (46_340, 46_341):
        top = n - 1
        pairs = [(top, top - 1), (0, top), (top - 2, top), (top - 1, top), (top - 1, 1), (5, 4)]
        got = Graph.from_edges(n, np.array(pairs, dtype=np.int64)).adjacency
        ref = [set() for _ in range(n)]
        for a, b in pairs:
            ref[a].add(b)
            ref[b].add(a)
        assert got == tuple(tuple(sorted(s)) for s in ref)
        assert all(type(w) is int for nbrs in got for w in nbrs)
        assert len({id(w) for nbrs in got for w in nbrs}) == len({w for nbrs in got for w in nbrs})


def test_vertex_counts_must_be_integers():
    # a float or a bool is refused before it reaches the key arithmetic
    for n in (3.0, True, False, 2.5, "3", None):
        with pytest.raises(ValueError, match="integer"):
            Graph.from_edges(n, [(0, 1)])
        with pytest.raises(ValueError, match="integer"):
            build_complete(n)
        with pytest.raises(ValueError, match="integer"):
            random_connected_graph(n, 1, 0)
    for bad in (0, -1, np.int64(0)):
        with pytest.raises(ValueError, match="positive integer"):
            build_complete(bad)
        with pytest.raises(ValueError, match="positive integer"):
            random_connected_graph(bad, 0, 0)
    assert Graph.from_edges(np.int64(3), [(0, 1)]) == Graph.from_edges(3, [(0, 1)])
    assert type(Graph.from_edges(np.int32(2), [(0, 1)]).adjacency[0][0]) is int
    assert build_complete(np.int64(4)) == build_complete(4)
    assert random_connected_graph(np.int64(5), 2, 7) == random_connected_graph(5, 2, 7)


def test_build_complete_shares_one_int_per_vertex():
    adj = build_complete(300).adjacency
    assert len({id(w) for nbrs in adj for w in nbrs}) == 300


def test_from_edges_rejects_bad_edges():
    cases = [([(0, 1), (-1, 2)], "edge \\(-1,2\\) out of range for 3 vertices"),
             ([(0, 3)], "edge \\(0,3\\) out of range for 3 vertices"),
             ([(0, 1), (2, 2), (0, 7)], "self-loop at vertex 2"),
             ([(0, 7), (2, 2)], "edge \\(0,7\\) out of range"),
             ([(5, 5)], "edge \\(5,5\\) out of range")]
    for edges, message in cases:
        for form in (edges, np.array(edges), iter(edges)):
            with pytest.raises(ValueError, match=message):
                Graph.from_edges(3, form)
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(0, [(0, 1)])
    with pytest.raises(ValueError, match="non-negative"):
        Graph.from_edges(-1, [])
    # non-integer ids are rejected, never cast
    for edges in (np.array([[0.0, 1.0]]), [(0.0, 1.0)], [(0, 1.5)], np.array([[True, False]])):
        with pytest.raises(ValueError, match="integer"):
            Graph.from_edges(3, edges)
    with pytest.raises(ValueError, match="pairs"):
        Graph.from_edges(3, np.array([[0, 1, 2]]))
