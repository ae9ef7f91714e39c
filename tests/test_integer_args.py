"""One rule each for integer, real and vertex-set arguments
(`geocp.errors.as_int`, `as_real` and `as_vertex_set`): Python and numpy
numbers are accepted and passed on as Python ints and floats; bools,
strings, NaN, floats where an integer is due and values out of range raise
ValueError."""

import math

import numpy as np
import pytest

from geocp.bounds import log_extinction_time_bound, rgg_log_tau_scale
from geocp.contact import (ContactConfig, birth_death_clique_simulate, lit_snapshots,
                           record_event_window, sample_extinction_times, simulate_coupled, simulate_extinction,
                           simulate_rate_coupled)
from geocp.errors import as_real, as_vertex_set
from geocp.exact import (clique_extinction_rates, exact_expected_extinction_ctmc,
                         log_exact_clique_extinction, sample_clique_extinction_times)
from geocp.graphs import (CaterpillarSpec, Graph, build_caterpillar, build_complete,
                          random_connected_graph)
from geocp.percolation import (SiteGrid, crossing_frequency, has_crossing,
                               longest_open_path_exact, op_first_passage, op_run,
                               op_survival_frequency, sample_site_grid)
from geocp.rgg import (CaterpillarEmbedding, GeometryConfig, PointCloud, discretize_boxes,
                       embedding_is_valid)

_GRID = sample_site_grid((3, 3), 0.6, 2)
_K3 = build_complete(3)

REFUSED = [
    (birth_death_clique_simulate, (5.5, 1.0, 2, 0)),  # once returned tau = 17.17
    (birth_death_clique_simulate, (5, 1.0, 2.5, 0)),
    (birth_death_clique_simulate, (True, 1.0, 1, 0)),
    (birth_death_clique_simulate, (0, 1.0, 0, 0)),
    (birth_death_clique_simulate, (5, 1.0, 6, 0)),
    (random_connected_graph, (4, -1, 0)),
    (random_connected_graph, (4, 1.5, 0)),  # once added 2 edges
    (random_connected_graph, (4.0, 1, 0)),
    (log_exact_clique_extinction, (True, 1.0)),  # once returned -0.0
    (log_exact_clique_extinction, (5.0, 1.0)),
    (clique_extinction_rates, (3.5, 1.0)),
    (sample_clique_extinction_times, (3, 1.0, 2.5, 0)),
    (exact_expected_extinction_ctmc, (_K3, 1.0, 12.5)),
    (exact_expected_extinction_ctmc, (_K3, 1.0, True)),
    (CaterpillarSpec, (True, 3)),  # once built C(1, 3)
    (CaterpillarSpec, (1, 2.0)),
    (CaterpillarSpec, (-1, 2)),
    (log_extinction_time_bound, (2.5, 1, 1.0)),
    (log_extinction_time_bound, (3, 1.5, 1.0)),
    (log_extinction_time_bound, (True, 0, 1.0)),
    (rgg_log_tau_scale, (10, 1, 2, 2.5)),
    (rgg_log_tau_scale, (10, 1, 2, True)),
    (rgg_log_tau_scale, (10, 1, 2, 0)),
    (SiteGrid, ((True,), np.ones(1, dtype=bool), None, None)),
    (SiteGrid, ((2.0,), np.ones(2, dtype=bool), None, None)),
    (longest_open_path_exact, (_GRID, 2.5)),
    (longest_open_path_exact, (_GRID, True)),
    (has_crossing, (_GRID, 0.0)),  # once raised numpy's IndexError
    (has_crossing, (_GRID, True)),  # once read as axis 1
    (GeometryConfig, (100.0, 1.0, 2.0)),
    (Graph.from_edges, (3.0, [])),
    (build_complete, (False,)),
    (sample_extinction_times, (_K3, 1.0, None, 1, 2.5)),
    (op_run, (4.0, 0.5, {0}, 3, 1)),
    (op_run, (4, 0.5, {0}, True, 1)),
    (op_first_passage, (2.5, 0.5, 1)),
    (op_survival_frequency, (4, 0.5, 2, 10.0, 1)),
    (crossing_frequency, ((4, 4), 0.5, 2.5, 1)),
    (crossing_frequency, ((4, 4.5), 0.5, 2, 1)),
]


@pytest.mark.parametrize("call, args", REFUSED,
                         ids=[f"{call.__qualname__}-{k}" for k, (call, _) in enumerate(REFUSED)])
def test_non_integer_counts_are_refused(call, args):
    with pytest.raises(ValueError, match="integer"):
        call(*args)


def test_numpy_integers_are_accepted_as_python_ints():
    i = np.int64
    run = op_run(i(4), 0.6, {0}, i(3), 1)
    assert run == op_run(4, 0.6, {0}, 3, 1)
    assert type(run.ell) is int and type(run.horizon) is int
    assert op_survival_frequency(i(4), 0.6, i(2), i(50), 1) == op_survival_frequency(4, 0.6, 2, 50, 1)
    assert crossing_frequency((i(6), 6), 0.6, i(5), 1, i(1)) == crossing_frequency((6, 6), 0.6, 5, 1, 1)
    assert op_first_passage(i(3), 0.7, 2) == op_first_passage(3, 0.7, 2)
    spec = CaterpillarSpec(i(1), np.int32(3))
    assert spec == CaterpillarSpec(1, 3) and type(spec.spine_length) is type(spec.clique_size) is int
    assert type(GeometryConfig(100.0, 1.0, i(2)).dim) is int
    grid = SiteGrid((i(2),), np.ones(2, dtype=bool), None, None)
    assert type(grid.dims[0]) is int and longest_open_path_exact(grid, i(4)) == 2
    assert log_exact_clique_extinction(i(5), 0.5) == log_exact_clique_extinction(5, 0.5)
    assert birth_death_clique_simulate(i(5), 0.5, i(5), 1) == birth_death_clique_simulate(5, 0.5, 5, 1)
    assert random_connected_graph(5, i(2), 7) == random_connected_graph(5, 2, 7)
    assert log_extinction_time_bound(i(3), i(2), 1.0) == log_extinction_time_bound(3, 2, 1.0)
    assert rgg_log_tau_scale(10, 1.0, 2.0, i(2)) == pytest.approx(10 * math.log(4.0))
    taus, _ = sample_extinction_times(_K3, 1.0, None, 1, i(3))
    assert len(taus) == 3
    assert exact_expected_extinction_ctmc(_K3, 1.0, i(3)) == exact_expected_extinction_ctmc(_K3, 1.0, 3)


_CFG = ContactConfig(1.0, 5.0, seed=3)
_CLOUD = PointCloud(np.array([[0.5, 0.5], [0.6, 0.5]]), 1.0)
_EMBEDDING = CaterpillarEmbedding(((0, 0),), ((0, 1),), (0,), 2)

REFUSED_VALUES = [
    (lit_snapshots, (build_caterpillar(CaterpillarSpec(1, 4)), _CFG, math.inf)),  # once took time nan
    (embedding_is_valid, (_EMBEDDING, _CLOUD, -1.0)),  # once read as radius 1
    (embedding_is_valid, (_EMBEDDING, _CLOUD, math.nan)),  # once returned False
    (discretize_boxes, (_CLOUD, 0.5, math.nan)),  # once opened no box
    (rgg_log_tau_scale, (math.inf, 1.0, 2.0, 2)),  # once returned inf
    (simulate_extinction, (_K3, _CFG, [True])),  # once read as vertex 1
    (simulate_extinction, (_K3, _CFG, [1.5])),  # once raised TypeError
    (simulate_extinction, (_K3, _CFG, ["1"])),
    (simulate_coupled, (_K3, _CFG, [True], [0, 1])),
    (simulate_coupled, (_K3, _CFG, [1.5], [0, 1])),
    (simulate_coupled, (_K3, _CFG, [0], ["1"])),
    (simulate_rate_coupled, (_K3, [1.0], 3, 5.0, [True])),
    (simulate_rate_coupled, (_K3, [1.0], 3, 5.0, [1.5])),
    (simulate_rate_coupled, (_K3, [1.0], 3, 5.0, ["1"])),
    (op_run, (4, 0.6, {2.7}, 2, 1)),  # once started from site 2
    (op_run, (4, 0.6, {True}, 2, 1)),  # once read as site 1
    (ContactConfig, (np.float32(0.0),)),  # the bounds are met as doubles, not as float32
    (record_event_window, (_K3, 1.0, 1, np.float32(math.inf))),
]


@pytest.mark.parametrize("call, args", REFUSED_VALUES,
                         ids=[f"{call.__qualname__}-{k}" for k, (call, _) in enumerate(REFUSED_VALUES)])
def test_bad_reals_and_vertex_sets_are_refused(call, args):
    with pytest.raises(ValueError, match=", not "):
        call(*args)


def test_numpy_reals_and_vertices_are_accepted_as_python_numbers():
    f, i = np.float32, np.int64
    assert type(as_real(f(0.5), "x", 0.0, 1.0)) is float and as_real(i(1), "x", 0.0, 1.0) == 1.0
    assert as_vertex_set([i(2), 0, i(2)], 3, "v") == {0, 2}
    assert all(type(v) is int for v in as_vertex_set(np.arange(3), 3, "v"))
    geo = GeometryConfig(np.float64(100.0), f(1.5), i(2), None, f(0.5), i(1))
    assert geo == GeometryConfig(100.0, 1.5, 2, None, 0.5, 1.0)
    assert all(type(x) is float for x in (geo.n, geo.radius, geo.lower, geo.upper))
    run = op_run(4, f(0.75), {i(0), i(2)}, 3, 1)
    assert run == op_run(4, 0.75, {0, 2}, 3, 1)
    assert type(run.q) is float and all(type(v) is int for v in run.occupancy[0])
    assert simulate_extinction(_K3, _CFG, [i(1)]) == simulate_extinction(_K3, _CFG, [1])
    taus, _ = sample_extinction_times(_K3, np.float64(1.0), i(5), 1, 3)
    assert taus.tolist() == sample_extinction_times(_K3, 1.0, 5.0, 1, 3)[0].tolist()
