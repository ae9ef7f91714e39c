import hashlib
import math

import numpy as np
import pytest

from geocp.errors import BudgetExceededError
from geocp.graphs import (CaterpillarSpec, Graph, build_caterpillar, build_complete,
                          connected_components, diameter, random_connected_graph)
from geocp.percolation import (SiteGrid, crossing_frequency, find_long_open_path,
                               glue_plane_paths, grid_from_field,
                               has_crossing, longest_open_path_exact, path_is_valid,
                               path_to_text, sample_site_grid, sample_uniform_field)
from geocp.rgg import GeometryConfig, find_caterpillar_embedding, sample_poisson_points


def test_site_grid_degenerate_p():
    assert sample_site_grid((4, 4), 1.0, 0).open.all()
    assert not sample_site_grid((4, 4), 0.0, 0).open.any()


def test_site_grid_open_fraction():
    fracs = [sample_site_grid((32, 32), 0.6, s).open.mean() for s in range(100)]
    se = math.sqrt(0.6 * 0.4 / (1024 * 100))
    assert abs(np.mean(fracs) - 0.6) <= 3 * se


def test_p_monotone_coupling():
    field = sample_uniform_field((20, 20), 5)
    g1 = grid_from_field(field, 0.4)
    g2 = grid_from_field(field, 0.7)
    assert not (g1.open & ~g2.open).any()
    assert len(find_long_open_path(g1)) <= len(find_long_open_path(g2)) + 0  # coupled growth
    # coupled openness implies coupled heuristic length is non-decreasing
    lens = []
    for p in (0.5, 0.65, 0.8):
        lens.append(len(find_long_open_path(grid_from_field(field, p))))
    assert lens == sorted(lens)


def test_full_grid_path_is_hamiltonian():
    grid = sample_site_grid((3, 3), 1.0, 0)
    path = find_long_open_path(grid)
    assert len(path) == 9
    assert path_is_valid(grid, path)
    for n in (4, 6, 8):
        g = sample_site_grid((n, n), 1.0, 0)
        assert len(find_long_open_path(g)) == n * n


def test_empty_and_output_validity():
    assert find_long_open_path(sample_site_grid((5, 5), 0.0, 1)) == []
    for s in range(20):
        grid = sample_site_grid((10, 10), 0.55, s)
        path = find_long_open_path(grid)
        assert path_is_valid(grid, path)


def test_heuristic_never_beats_exact():
    for s in range(100):
        grid = sample_site_grid((4, 4), 0.5, s)
        h = len(find_long_open_path(grid))
        assert h <= longest_open_path_exact(grid)


def test_exact_small_cases():
    assert longest_open_path_exact(sample_site_grid((2, 2), 1.0, 0)) == 4
    single = SiteGrid((1, 1), np.ones((1, 1), dtype=bool), 1.0, 0)
    assert longest_open_path_exact(single) == 1
    assert longest_open_path_exact(sample_site_grid((3, 3), 0.0, 0)) == 0


def test_exact_budget_refusal():
    grid = sample_site_grid((7, 7), 1.0, 0)  # 49 open sites
    with pytest.raises(BudgetExceededError):
        longest_open_path_exact(grid)


def test_crossing_probability_monotone():
    lo, _ = crossing_frequency((12, 12), 0.35, 60, 3)
    hi, _ = crossing_frequency((12, 12), 0.85, 60, 3)
    assert lo < hi
    assert has_crossing(sample_site_grid((6, 6), 1.0, 0))
    assert not has_crossing(sample_site_grid((6, 6), 0.0, 0))


def test_glue_full_grid_beats_single_plane():
    n = 12
    grid = sample_site_grid((n, n, n), 1.0, 0)
    m = max(1, round(n**0.25))
    res = glue_plane_paths(grid, m, m)
    assert not res.used_fallback
    assert path_is_valid(grid, res.path)
    single = []
    for i in range(n):
        plane = SiteGrid((n, n), grid.open[i], p=None, seed=None)
        single.append(len(find_long_open_path(plane)))
    assert len(res.path) > max(single)


def test_glue_supercritical_valid():
    n = 24
    grid = sample_site_grid((n, n, n), 0.85, 7)
    m = math.ceil(n**0.25)
    res = glue_plane_paths(grid, m, m)
    assert path_is_valid(grid, res.path)
    assert len(res.path) >= res.nice_planes_traversed * res.min_traversed_plane_length


def test_glue_falls_back_when_structure_absent():
    # margins too large for the grid: construction impossible, heuristic used
    grid = sample_site_grid((4, 6, 6), 0.9, 1)
    res = glue_plane_paths(grid, 3, 2)
    assert res.used_fallback
    assert path_is_valid(grid, res.path)
    with pytest.raises(ValueError):
        glue_plane_paths(sample_site_grid((5, 5), 0.9, 1), 1, 1)


def test_text_dumps():
    grid = sample_site_grid((2, 3), 1.0, 0)
    path = find_long_open_path(grid)
    text = path_to_text(path)
    assert len(text.strip().splitlines()) == len(path)


def _digest(values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(repr(v).encode() + b"\n")
    return h.hexdigest()[:16]


def test_site_percolation_golden():
    """Digests of every lattice and graph traversal, recorded from the
    per-routine breadth-first searches and the position-dict Posa path that
    the shared `_bfs` and the plain-list path replaced."""
    path_cells = ([((4, 4), 0.5, s) for s in range(4)]
                  + [((10, 10), 0.55, 1), ((16, 16), 0.6, 2), ((24, 24), 0.65, 3),
                     ((32, 32), 0.7, 4), ((12, 30), 0.6, 5), ((128, 128), 0.75, 6),
                     ((1, 1), 1.0, 0), ((3, 5), 1.0, 0), ((8, 8), 1.0, 0), ((9,), 1.0, 0),
                     ((6, 6, 6), 0.5, 7), ((8, 8, 8), 0.35, 8), ((10, 10, 10), 0.4, 9),
                     ((5, 5, 5), 1.0, 0), ((4, 6, 8), 0.6, 10), ((3, 3, 3, 3), 0.6, 11)])
    paths = [find_long_open_path(sample_site_grid(d, p, s)) for d, p, s in path_cells]
    # the 8^3 cells reach every branch of the plane router and of the exit
    # choice; (4, 6, 6) falls back, and the 4-d grid glues its first three axes
    glue_cells = [((12, 12, 12), 1.0, 0, 2, 2), ((8, 8, 8), 0.45, 500, 1, 1),
                  ((8, 8, 8), 0.55, 500, 1, 6), ((8, 8, 8), 0.65, 501, 1, 1),
                  ((8, 8, 8), 0.65, 503, 1, 1), ((8, 8, 8), 0.75, 502, 1, 1),
                  ((8, 8, 8), 0.75, 507, 1, 1), ((4, 6, 6), 0.9, 1, 3, 2),
                  ((10, 12, 12, 2), 0.9, 15, 2, 2)]
    glued = [glue_plane_paths(sample_site_grid(d, p, s), m, m1) for d, p, s, m, m1 in glue_cells]
    crossings = []
    for s in range(100):
        dims = (12, 12) if s % 2 else (6, 7, 5)
        grid = sample_site_grid(dims, 0.35 + 0.005 * s, 100 + s)
        crossings.append(tuple(has_crossing(grid, axis) for axis in range(len(dims))))
    embeddings = []
    for n, r, d, seed in ((3000.0, 10.0, 2, 21), (2000.0, 5.5, 3, 22)):
        cfg = GeometryConfig(n, r, d)
        emb = find_caterpillar_embedding(sample_poisson_points(cfg, seed), cfg)
        embeddings.append((emb.box_path, emb.blocks, emb.spine))
    graphs = [build_caterpillar(CaterpillarSpec(4, 3)).graph, build_complete(5), Graph.from_edges(0, []),
              Graph.from_edges(7, [(0, 1), (2, 3), (3, 4), (5, 6), (6, 2)]),
              Graph.from_edges(7, [(4, 5), (0, 3), (1, 2), (5, 6), (6, 4)])]
    # the double sweep gives 4 on random_connected_graph(10, 2, 5), whose
    # diameter is 6
    graphs += [random_connected_graph(9 + k, k, 30 + k) for k in range(4)]
    graphs.append(random_connected_graph(10, 2, 5))
    structure = []
    for g in graphs:
        comps = connected_components(g)
        structure.append([sorted(c) for c in comps])
        structure.append([(diameter(g, c), diameter(g, c, exact=False)) for c in comps])
    record = {"path_lengths": [len(p) for p in paths], "paths": _digest(paths),
              "glued": _digest(glued), "crossings": _digest(crossings),
              "embeddings": _digest(embeddings), "structure": _digest(structure)}
    assert record == {
        "path_lengths": [4, 3, 4, 5, 16, 75, 140, 470, 96, 8348, 1, 15, 64, 9,
                         73, 40, 162, 125, 111, 39],
        "paths": "812a571bd64c9c90",
        "glued": "de87aa3ec3e65a6f",
        "crossings": "a45cca34f2de991b",
        "embeddings": "c4ce3e0eaab24d8b",
        "structure": "fe9052a9a636897f",
    }
