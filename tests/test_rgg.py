import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from geocp import rgg as rgg_module
from geocp.rgg import (GeometryConfig, PointCloud, _cell_keys, _half_steps, build_rgg,
                       discretize_boxes, embedding_is_valid, find_caterpillar_embedding,
                       sample_poisson_points, to_point_text)
from graph_helpers import build_rgg_bruteforce, fingerprint


def test_poisson_count_moments():
    cfg = GeometryConfig(400.0, 1.0, 2)
    counts = [len(sample_poisson_points(cfg, seed)) for seed in range(1000)]
    counts = np.asarray(counts, dtype=float)
    # mean of Poisson(400) over 1000 seeds: SE = sqrt(400/1000)
    assert abs(counts.mean() - 400.0) <= 3 * math.sqrt(400.0 / 1000)
    # variance should be near 400 as well (Poisson consistency)
    var_se = 400.0 * math.sqrt(2.0 / (len(counts) - 1))
    assert abs(counts.var(ddof=1) - 400.0) <= 4 * var_se


def test_poisson_thinning_keeps_all_at_upper_bound():
    # constant intensity at the declared upper bound accepts every point
    cfg_b = GeometryConfig(100.0, 1.0, 2, intensity=lambda pts: np.full(len(pts), 2.0),
                           lower=2.0, upper=2.0)
    cfg_flat = GeometryConfig(200.0, 1.0, 2)
    n_b = len(sample_poisson_points(cfg_b, 5))
    # same seed, same underlying candidate count: Poisson(upper*n) = Poisson(200)
    assert n_b == len(sample_poisson_points(cfg_flat, 5))


def test_intensity_out_of_bounds_rejected():
    cfg = GeometryConfig(50.0, 1.0, 2, intensity=lambda pts: np.full(len(pts), 3.0),
                         lower=1.0, upper=2.0)
    with pytest.raises(ValueError, match="outside declared bounds"):
        sample_poisson_points(cfg, 0)


def test_rgg_simple_cases():
    cloud = PointCloud(np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 2.5]]), 2.5)
    g = build_rgg(cloud, 1.0)
    assert g.edges() == [(0, 1)]


def test_rgg_inclusive_at_exact_radius():
    cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]), 1.0)
    assert build_rgg(cloud, 1.0).edge_count == 1
    assert build_rgg_bruteforce(cloud, 1.0).edge_count == 1


def test_rgg_matches_bruteforce():
    rng = np.random.default_rng(0)
    for trial in range(50):
        d = 1 + trial % 3
        n = int(rng.integers(2, 120))
        side = float(rng.uniform(2.0, 8.0))
        pts = rng.random((n, d)) * side
        cloud = PointCloud(pts, side)
        radius = float(rng.uniform(0.3, 2.0))
        fast = build_rgg(cloud, radius)
        slow = build_rgg_bruteforce(cloud, radius)
        assert fast.adjacency == slow.adjacency


def test_rgg_matches_bruteforce_on_integer_lattices():
    # integer coordinates and radii make every squared distance exact, so
    # many pairs sit at exactly R, in every dimension the builder serves
    rng = np.random.default_rng(11)
    for d in range(1, 11):
        side = 6 if d <= 3 else (2 if d <= 6 else 1)
        pts = rng.integers(0, side + 1, (80 if d > 1 else 12, d)).astype(float)
        cloud = PointCloud(pts, float(side))
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        exact = 0
        for radius in (1.0, 2.0, 3.0):
            g = build_rgg(cloud, radius)
            assert g.adjacency == build_rgg_bruteforce(cloud, radius).adjacency, (d, radius)
            at_r = np.argwhere(np.triu(d2 == radius * radius, 1)).tolist()
            assert all(b in g.adjacency[a] for a, b in at_r)
            exact += len(at_r)
        assert exact >= 40, d


def test_rgg_sums_the_axes_in_order():
    # from eight axes on, numpy's .sum(axis=1) adds pairwise; pairs whose
    # in-order squared distance sits on the other side of R^2 from the
    # pairwise one are edges exactly when the in-order sum is <= R^2
    rng = np.random.default_rng(3)
    seen = {True: 0, False: 0}
    for _ in range(1000):
        d = int(rng.integers(8, 11))
        a = rng.random(d) + 1.0
        b = a + rng.normal(0.0, 0.3, d)
        gap2 = (a - b) ** 2
        in_order = float(np.cumsum(gap2)[-1])  # added left to right
        radius = math.sqrt(in_order)
        r2 = radius * radius
        if (in_order <= r2) == (gap2.sum() <= r2) or b.min() < 0.0 or b.max() > 4.0:
            continue
        edge = in_order <= r2
        seen[edge] += 1
        cloud = PointCloud(np.array([a, b]), 4.0)
        assert build_rgg(cloud, radius).edge_count == edge
        assert build_rgg_bruteforce(cloud, radius).edge_count == edge
        assert rgg_module._pair_edges(a[None], b[None], r2)[0, 0] == edge
    assert min(seen.values()) >= 20


def test_rgg_relabeling_isomorphism():
    rng = np.random.default_rng(42)
    pts = rng.random((60, 2)) * 5.0
    cloud = PointCloud(pts, 5.0)
    g = build_rgg(cloud, 0.9)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    sorted_cloud = PointCloud(pts[order], 5.0)
    g2 = build_rgg(sorted_cloud, 0.9)
    assert sorted(len(a) for a in g.adjacency) == sorted(len(a) for a in g2.adjacency)
    rank = np.empty(len(order), dtype=int)
    rank[order] = np.arange(len(order))
    remapped = sorted((min(rank[a], rank[b]), max(rank[a], rank[b])) for a, b in g.edges())
    assert remapped == g2.edges()


def test_discretize_boxes():
    cloud = PointCloud(np.array([[0.0, 0.0]]), 4.0)
    lat = discretize_boxes(cloud, 1.0, 1.0)
    assert lat.counts.sum() == 1
    assert lat.counts[0, 0] == 1
    assert lat.open_flags.sum() == 1
    # threshold zero opens every box
    lat0 = discretize_boxes(cloud, 1.0, 0.0)
    assert lat0.open_flags.all()
    # counts partition the cloud
    rng = np.random.default_rng(1)
    cloud2 = PointCloud(rng.random((200, 2)) * 7.0, 7.0)
    lat2 = discretize_boxes(cloud2, 1.5, 2.0)
    assert lat2.counts.sum() == 200


def _loop_members(cloud, side):
    """Box members grouped one point at a time, in order of first point."""
    per_axis = max(1, math.ceil(cloud.box_side / side - 1e-12))
    idx = np.clip(np.floor(cloud.points / side).astype(np.int64), 0, per_axis - 1)
    members = {}
    for i, c in enumerate(map(tuple, idx.tolist())):
        members.setdefault(c, []).append(i)
    return members


@pytest.mark.parametrize("n, side, d, seed", [(3000.0, 1.7, 2, 1), (800.0, 1.3, 3, 2),
                                              (60.0, 0.9, 1, 3), (40.0, 2.0, 4, 4), (5.0, 10.0, 2, 5)])
def test_discretize_boxes_groups_like_the_point_loop(n, side, d, seed):
    cloud = sample_poisson_points(GeometryConfig(n, 1.0, d), seed)
    lat = discretize_boxes(cloud, side, 2.0)
    members = _loop_members(cloud, side)
    assert list(lat.members) == list(members)  # keys and their order
    assert all(type(c) is int for box in lat.members for c in box)
    assert all(lat.members[box].tolist() == ids for box, ids in members.items())
    counts = np.zeros(lat.dims, dtype=np.int64)
    for box, ids in members.items():
        counts[box] = len(ids)
    assert lat.counts.dtype == np.int64 and np.array_equal(lat.counts, counts)
    assert discretize_boxes(PointCloud(np.empty((0, d)), 5.0), side, 1.0).members == {}


def test_discretize_boxes_rejects_bad_sides():
    cloud = PointCloud(np.array([[0.5, 0.5]]), 4.0)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="box side must be positive and finite"):
            discretize_boxes(cloud, bad, 1.0)


def test_embedding_single_box_degenerate():
    rng = np.random.default_rng(3)
    pts = rng.random((15, 2)) * 2.0
    cloud = PointCloud(pts, 2.0)
    cfg = GeometryConfig(4.0, 3.0, 2)  # radius >= sqrt(2)*side: one clique
    emb = find_caterpillar_embedding(cloud, cfg)
    assert emb is not None
    assert emb.spine_length == 0
    assert len(emb.blocks[0]) == 15
    assert embedding_is_valid(emb, cloud, cfg.radius)


def test_embedding_empty_cloud():
    cloud = PointCloud(np.empty((0, 2)), 10.0)
    cfg = GeometryConfig(100.0, 2.0, 2)
    assert find_caterpillar_embedding(cloud, cfg) is None


def test_embedding_blocks_are_cliques_in_host_graph():
    cfg = GeometryConfig(2500.0, math.sqrt(50.0), 2)
    cloud = sample_poisson_points(cfg, 9)
    emb = find_caterpillar_embedding(cloud, cfg)
    assert emb is not None
    assert emb.spine_length >= 2
    assert embedding_is_valid(emb, cloud, cfg.radius)
    side = cfg.radius / (2 * math.sqrt(2))
    mu_half = side**2 / 2
    assert all(len(b) >= mu_half for b in emb.blocks)
    assert all(len(b) == emb.block_size for b in emb.blocks)
    # cross-check against actual host-graph adjacency
    g = build_rgg(cloud, cfg.radius)
    adj = [set(nbrs) for nbrs in g.adjacency]
    for bi, block in enumerate(emb.blocks):
        for i, a in enumerate(block):
            for b in block[i + 1:]:
                assert b in adj[a]
        if bi + 1 < len(emb.blocks):
            for a in block:
                for b in emb.blocks[bi + 1]:
                    assert b in adj[a]
    # spine vertices chain through consecutive blocks
    for s, block in zip(emb.spine, emb.blocks):
        assert s in block


def test_point_text_roundtrip():
    rng = np.random.default_rng(8)
    cloud = PointCloud(rng.random((5, 3)) * 2.0, 2.0)
    text = to_point_text(cloud)
    back = np.array([[float(x) for x in line.split()] for line in text.splitlines()])
    assert np.array_equal(back, cloud.points)  # 17 digits round-trip


def test_point_cloud_domain_validation():
    with pytest.raises(ValueError):
        PointCloud(np.array([[2.0, 0.0]]), 1.0)


def test_embedding_spine_scales_with_volume():
    # uniform cloud, n=1e4, connection volume 100: the spine should reach a
    # measurable fraction of n/R^d; 0.2 is an empirical floor, far below
    # the observed values
    cfg = GeometryConfig(10_000.0, 10.0, 2)
    hits = 0
    for seed in range(20):
        cloud = sample_poisson_points(cfg, seed)
        emb = find_caterpillar_embedding(cloud, cfg)
        if emb is not None and emb.spine_length >= 0.2 * cfg.n / cfg.radius**2:
            hits += 1
    assert hits >= 18


def test_discretize_interior_box_mean():
    # unit intensity: interior boxes of side s hold s^d points on average
    side = 3.0
    cfg = GeometryConfig(900.0, 1.0, 2)  # domain side 30, 10x10 boxes
    acc = []
    for seed in range(20):
        cloud = sample_poisson_points(cfg, seed)
        lat = discretize_boxes(cloud, side, 1.0)
        acc.append(lat.counts[1:-1, 1:-1].mean())
    expected = side**2
    se = math.sqrt(expected / (20 * 64))
    assert abs(np.mean(acc) - expected) <= 3 * se


def test_rgg_fingerprint_golden():
    """Edge-list digests recorded on the per-cell builder this one replaced."""
    cases = [((2000.0, 3.0, 2), 17, 2016, 27107, "faaaa3d66fab"),
             ((10_000.0, 6.0, 2), 18, 10015, 540458, "38ab8140657c"),
             ((2000.0, 2.0, 3), 19, 2011, 27839, "8015ce116bd5")]
    for (n, radius, d), seed, count, edges, digest in cases:
        cloud = sample_poisson_points(GeometryConfig(n, radius, d), seed)
        g = build_rgg(cloud, radius)
        assert (len(cloud), g.edge_count, fingerprint(g)) == (count, edges, digest)


def test_build_rgg_memory_per_adjacency_entry():
    # measured 8.75 B retained and 25.2 B at the peak per directed entry
    # (numpy 2.4, CPython 3.11); the bounds leave ~40 % on each.  Fresh
    # ints per entry and three edge copies at once took 38 and 85 B.
    cloud = sample_poisson_points(GeometryConfig(4000.0, 6.0, 2), 7)
    gc.collect()
    tracemalloc.start()
    try:
        g = build_rgg(cloud, 6.0)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entries = 2 * g.edge_count
    assert entries > 400_000
    assert retained / entries < 12.5
    assert peak / entries < 36.0


def test_rgg_wide_grid_matches_bruteforce():
    # side 5 at R = 0.01 in dim 8 would need ~502^8 > 2^63 padded cells of
    # side R, and side 5 at R = 1e-19 in dim 1 more than 2^63 cells on one
    # axis; the builder widens its cells instead of overflowing the key
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        key, width = _cell_keys(np.array([[0.0], [5.0]]), 1e-19)
        tiny = build_rgg(PointCloud(np.array([[0.0], [5.0], [5.0]]), 5.0), 1e-19)
    assert 0 <= key.min() and key.max() + max(_half_steps(width, 1)) < 2**62
    assert tiny.edges() == [(1, 2)]
    rng = np.random.default_rng(5)
    pts = rng.random((150, 8)) * 5.0
    pts[1] = pts[0]
    pts[2] = pts[0]
    pts[2, 3] += 0.0075  # within R of point 0
    pts[3] = pts[0]
    pts[3, 5] += 0.0125  # beyond R
    cloud = PointCloud(pts, 5.0)
    key, width = _cell_keys(pts, 0.01)
    assert 0 <= key.min() and key.max() + max(_half_steps(width, 8)) < 2**62
    g = build_rgg(cloud, 0.01)
    assert g.adjacency == build_rgg_bruteforce(cloud, 0.01).adjacency
    assert {(0, 1), (0, 2), (1, 2)} <= set(g.edges()) and g.adjacency[3] == ()
    wide = build_rgg(cloud, 1.0)
    assert wide.adjacency == build_rgg_bruteforce(cloud, 1.0).adjacency
    # from dim 32 no padded grid of 3+ cells per axis fits in 2^62 keys
    with pytest.raises(ValueError, match="dim <= 31"):
        build_rgg(PointCloud(np.zeros((2, 32)), 1.0), 1.0)


def test_rgg_high_dim_pairs_occupied_cells():
    # clusters of five points, spread by about R per axis, in dims 6-10: far
    # fewer occupied cells than the (3^d - 1)/2 half-neighbour offsets
    rng = np.random.default_rng(8)
    for d in range(6, 11):
        centres = rng.random((8, d)) * 6.0 + 1.0
        pts = np.repeat(centres, 5, axis=0) + rng.normal(0.0, 0.25, (40, d))
        pts[1] = pts[0]
        pts[2] = pts[0]
        pts[2, 0] += 1.0  # R = 1 from point 0 along one axis, across a cell face
        cloud = PointCloud(np.clip(pts, 0.0, 8.0), 8.0)
        counts = []
        for radius in (0.7, 1.0, 1.6):
            g = build_rgg(cloud, radius)
            assert g.adjacency == build_rgg_bruteforce(cloud, radius).adjacency
            counts.append(g.edge_count)
            assert radius != 1.0 or (0, 2) in g.edges()
        assert 0 < counts[0] < counts[1] < counts[2]


def test_rgg_sparse_high_dim_cloud_skips_the_offsets(monkeypatch):
    # 20 far-apart points in d = 10 against 29 524 half-neighbour offsets
    def no_offsets(width, d):
        raise AssertionError("visited every half-neighbour offset")

    monkeypatch.setattr(rgg_module, "_half_steps", no_offsets)
    cloud = PointCloud(np.random.default_rng(1).random((20, 10)) * 100.0, 100.0)
    g = build_rgg(cloud, 1.0)
    assert g.vertex_count == 20 and g.edge_count == 0
    assert g.adjacency == build_rgg_bruteforce(cloud, 1.0).adjacency


def test_rgg_radius_validation():
    cloud = PointCloud(np.array([[0.5, 0.5], [0.2, 0.3], [0.9, 0.1]]), 1.0)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="radius must be positive"):
            build_rgg(cloud, bad)
    complete = build_rgg(cloud, math.inf)
    assert complete.edges() == [(0, 1), (0, 2), (1, 2)]
    assert complete.adjacency == build_rgg_bruteforce(cloud, math.inf).adjacency
    assert build_rgg(PointCloud(np.empty((0, 3)), 1.0), math.inf).vertex_count == 0


def test_point_cloud_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            PointCloud(np.array([[0.5, bad], [0.2, 0.3]]), 1.0)


def test_geometry_config_rejects_non_finite():
    for n, radius in ((math.nan, 1.0), (math.inf, 1.0), (100.0, math.nan), (0.0, 1.0),
                      (100.0, 0.0)):
        with pytest.raises(ValueError):
            GeometryConfig(n, radius, 2)
    assert GeometryConfig(100.0, math.inf, 2).radius == math.inf


def test_geometry_config_requires_an_integer_dim():
    # dim = 2.5 once passed and failed later inside numpy's sampler
    for bad in (2.5, 2.0, True, False, "2", None):
        with pytest.raises(ValueError, match="dim"):
            GeometryConfig(100.0, 1.0, bad)
    assert GeometryConfig(100.0, 1.0, np.int64(3)).domain_side == pytest.approx(100.0 ** (1 / 3))


def test_point_cloud_rejects_bad_box_side():
    for side in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="box_side"):
            PointCloud(np.array([[5.0, 7.0]]), side)
    with pytest.raises(ValueError, match="box_side"):
        PointCloud(np.empty((0, 2)), math.nan)


def test_intensity_bounds_must_be_finite():
    for lower, upper in ((1.0, math.inf), (math.inf, math.inf), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            GeometryConfig(100.0, 1.0, 2, None, lower, upper)
    assert len(sample_poisson_points(GeometryConfig(100.0, 1.0, 2, None, 1.0, 2.0), 0)) > 0
