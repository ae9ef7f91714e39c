import math

import numpy as np
import pytest

from geocp.errors import BudgetExceededError
from geocp.percolation import (SiteGrid, crossing_frequency, find_long_open_path,
                               glue_plane_paths, grid_from_field,
                               has_crossing, longest_open_path_exact, path_is_valid,
                               path_to_text, sample_site_grid, sample_uniform_field)


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
