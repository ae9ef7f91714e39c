"""Each benchmark check passes on a right input and fails on a wrong one.

    python3 -m pytest perfbench/test_checks.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
from geocp import exact, graphs, percolation, rgg  # noqa: E402

ALPHA = 1e-7


def _exponential_cells(cells, count, shift_se):
    """Samples of Exp(mean mu) per cell, shifted by `shift_se` standard errors."""
    rng = np.random.default_rng(5)
    out = []
    for mu in np.linspace(1.0, 20.0, cells):
        sample = rng.exponential(mu, count) + shift_se * mu / np.sqrt(count)
        out.append((sample, mu, 2 * mu * mu))
    return out


def test_mean_check_passes_a_right_sample():
    for sample, m1, m2 in _exponential_cells(20, 60, 0.0):
        assert checks.mean_matches("cell", sample, m1, m2, ALPHA) == []


def test_mean_check_fails_a_sample_shifted_by_several_se():
    (sample, m1, m2), = _exponential_cells(1, 60, 0.0)
    assert checks.mean_matches("cell", sample + 8 * m1 / np.sqrt(60), m1, m2, ALPHA)
    assert checks.mean_matches("cell", sample - 8 * m1 / np.sqrt(60), m1, m2, ALPHA)


def test_pooled_score_fails_cells_each_shifted_by_a_few_se():
    right = _exponential_cells(20, 60, 0.0)
    shifted = _exponential_cells(20, 60, 3.0)
    assert checks.pooled_score("battery", [checks.standard_score(*c) for c in right], ALPHA) == []
    assert checks.pooled_score("battery", [checks.standard_score(*c) for c in shifted], ALPHA)


def test_close():
    assert checks.close("m", 1.0 + 1e-12, 1.0, 1e-9) == []
    assert checks.close("m", 1.0 + 1e-6, 1.0, 1e-9)


def test_binomial_check():
    p = oracles.op_survival(4, 0.6, 8)
    assert checks.binomial_matches("op", round(p * 20_000) / 20_000, 20_000, p, ALPHA) == []
    assert checks.binomial_matches("op", p + 0.03, 20_000, p, ALPHA)


def _small_rgg():
    cfg = rgg.GeometryConfig(200.0, 2.0, 2)
    cloud = rgg.sample_poisson_points(cfg, 3)
    return cloud, rgg.build_rgg(cloud, cfg.radius)


def test_edge_set_check_passes_the_built_graph():
    cloud, g = _small_rgg()
    assert checks.edge_set_matches("rgg", g.adjacency, cloud.points, 2.0) == []


def test_edge_set_check_fails_an_rgg_with_one_edge_dropped():
    cloud, g = _small_rgg()
    a, b = g.edges()[len(g.edges()) // 2]
    adjacency = [list(nbrs) for nbrs in g.adjacency]
    adjacency[a].remove(b)
    adjacency[b].remove(a)
    assert checks.edge_set_matches("rgg", adjacency, cloud.points, 2.0)


def test_censoring_check():
    taus, cens = np.array([0.01, 0.01]), np.array([True, True])
    assert checks.all_censored_at("dense", taus, cens, 0.01) == []
    assert checks.all_censored_at("dense", np.array([0.01, 0.009]), np.array([True, False]), 0.01)


def test_subcritical_bracket():
    sizes = [2000] * 4
    upper = oracles.bd_mean(2000, 0.5)
    lower = oracles.harmonic(2000)
    inside = np.full(4, (upper + lower) / 2)
    cens = np.zeros(4, dtype=bool)
    assert checks.subcritical_bracket("sub", inside, cens, sizes, 0.5, ALPHA) == []
    assert checks.subcritical_bracket("sub", inside / 3, cens, sizes, 0.5, ALPHA)
    assert checks.subcritical_bracket("sub", inside * 4, cens, sizes, 0.5, ALPHA)
    assert checks.subcritical_bracket("sub", inside, ~cens, sizes, 0.5, ALPHA)


def test_crossing_sequence_must_not_decrease_in_p():
    assert checks.non_decreasing("crossing", [0.0, 0.15, 0.55, 0.55, 1.0]) == []
    assert checks.non_decreasing("crossing", [0.0, 0.55, 0.15, 1.0])


def test_rate_coupled_taus_must_be_in_order():
    assert checks.non_decreasing("rates", [0.4, 1.2, None, None]) == []
    assert checks.non_decreasing("rates", [0.4, None, 1.2, None])
    assert checks.non_decreasing("rates", [1.2, 0.4, 3.0, None])


def _open_grid():
    grid = np.ones((4, 4), dtype=bool)
    grid[1, 1] = False
    return grid


def test_path_check_passes_a_valid_path():
    assert checks.path_valid("path", _open_grid(), [(0, 0), (0, 1), (0, 2), (1, 2)]) == []


def test_path_check_fails_a_repeated_site():
    assert checks.path_valid("path", _open_grid(), [(0, 0), (0, 1), (0, 0)])


def test_path_check_fails_a_closed_site():
    assert checks.path_valid("path", _open_grid(), [(0, 1), (1, 1), (2, 1)])


def test_path_check_fails_a_jump():
    assert checks.path_valid("path", _open_grid(), [(0, 0), (0, 2)])


def test_path_length_bounds():
    open_sites = _open_grid()
    best = oracles.longest_open_path(open_sites)
    grid = percolation.SiteGrid((4, 4), open_sites, None, None)
    assert best == percolation.longest_open_path_exact(grid)
    assert checks.path_length_within("tiny", open_sites, best, True, 0.75) == []
    assert checks.path_length_within("tiny", open_sites, best + 1, True, 0.75)
    assert checks.path_length_within("big", open_sites, 16, False, 0.5)


def test_path_length_check_fails_a_too_short_path():
    open_sites = _open_grid()
    best = oracles.longest_open_path(open_sites)
    assert checks.path_length_within("tiny", open_sites, 1, True, 0.75)
    assert checks.path_length_within("tiny", open_sites, int(0.75 * best) - 1, True, 0.75)
    assert checks.path_length_within("big", open_sites, 7, False, 0.5)
    assert checks.path_length_within("big", open_sites, 8, False, 0.5) == []


def test_embedding_check():
    points = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [3.0, 0.0]])
    assert checks.embedding_within("emb", points, [(0, 1), (2,)], 1.0) == []
    assert checks.embedding_within("emb", points, [(0, 1), (3,)], 1.0)


def test_forward_dual_pair_must_agree():
    assert checks.same_answers("duality", [True, False, True], [True, False, True]) == []
    assert checks.same_answers("duality", [True, False, True], [True, True, True])


def test_containment_check():
    assert checks.contained("coupled", [{0}, set()], [{0, 1}, {2}]) == []
    assert checks.contained("coupled", [{0, 3}, set()], [{0, 1}, {2}])


def test_first_passage_check():
    occupancy = [frozenset({0}), frozenset({1}), frozenset({2})]
    assert checks.first_passage_agrees("op", 2, False, occupancy, 2) == []
    assert checks.first_passage_agrees("op", 1, False, occupancy, 2)
    assert checks.first_passage_agrees("op", None, True, occupancy, 2)


@pytest.mark.parametrize("spine,clique", [(1, 2), (2, 1)])
def test_lumped_caterpillar_oracle_matches_the_full_chain(spine, clique):
    g = graphs.build_caterpillar(graphs.CaterpillarSpec(spine, clique)).graph
    lumped = oracles.caterpillar_moments(spine, clique, 1.3)
    full = oracles.graph_moments(g.adjacency, 1.3)
    assert lumped == pytest.approx(full, rel=1e-10)
    assert lumped[0] == pytest.approx(exact.exact_expected_extinction_ctmc(g, 1.3), rel=1e-10)


def test_clique_oracle_matches_the_full_chain():
    assert oracles.clique_moments(5, 0.7) == pytest.approx(
        oracles.graph_moments(graphs.build_complete(5).adjacency, 0.7), rel=1e-10)


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        [(name, unit) for name, unit, _, _ in spans.LAYER_METRICS] + [("trace.overhead_s", "s")])
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, bench)
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "percolation",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
