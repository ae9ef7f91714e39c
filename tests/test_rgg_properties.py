"""Property tests: the sorted-cell builder against the quadratic reference."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from geocp.rgg import PointCloud, build_rgg
from graph_helpers import build_rgg_bruteforce


@st.composite
def clouds(draw):
    """Clouds in dims 1-4 whose coordinates are often whole multiples of the
    radius (cell boundaries, pairs at exactly distance R), with duplicates."""
    d = draw(st.integers(1, 4))
    radius = draw(st.sampled_from([0.25, 0.3, 0.5, 1.0, 1.5, 3.0]))
    coord = st.one_of(st.integers(0, 6).map(lambda k: k * radius),
                      st.floats(0.0, 6.0 * radius, allow_nan=False, allow_infinity=False))
    rows = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=40))
    copies = draw(st.lists(st.integers(0, len(rows) - 1), max_size=5))
    pts = np.asarray(rows + [rows[i] for i in copies], dtype=float)
    order = draw(st.permutations(range(len(pts))))
    return PointCloud(pts[list(order)], 6.0 * radius), radius


def _assert_matches(cloud, radius):
    g = build_rgg(cloud, radius)
    assert g.adjacency == build_rgg_bruteforce(cloud, radius).adjacency
    assert all(type(v) is int for nbrs in g.adjacency for v in nbrs)
    return g


@settings(max_examples=300, deadline=None, derandomize=True)
@given(clouds())
def test_rgg_matches_bruteforce_on_boundaries(case):
    _assert_matches(*case)


def test_rgg_degenerate_clouds():
    single = _assert_matches(PointCloud(np.array([[0.7, 0.2]]), 1.0), 0.5)
    assert single.adjacency == ((),)
    # all points in one cell of side R: a complete graph
    rng = np.random.default_rng(3)
    for d in (1, 2, 3, 4):
        pts = rng.random((30, d)) * (0.99 / d)
        g = _assert_matches(PointCloud(pts, 1.0), 1.0)
        assert g.edge_count == 30 * 29 // 2
    # duplicates at distance 0 and a pair exactly R apart across a cell boundary
    pts = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 1.0], [3.0, 1.0], [3.0, 2.0], [0.0, 0.0]])
    g = _assert_matches(PointCloud(pts, 3.0), 1.0)
    assert g.edges() == [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]
