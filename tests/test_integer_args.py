"""One rule for integer arguments (`geocp.errors.as_int`): Python and numpy
integers are accepted and passed on as Python ints; floats, bools,
strings and values below the least allowed one raise ValueError."""

import math

import numpy as np
import pytest

from geocp.bounds import log_extinction_time_bound, rgg_log_tau_scale
from geocp.contact import birth_death_clique_simulate, sample_extinction_times
from geocp.exact import (clique_extinction_rates, exact_expected_extinction_ctmc,
                         log_exact_clique_extinction, sample_clique_extinction_times)
from geocp.graphs import CaterpillarSpec, Graph, build_complete, random_connected_graph
from geocp.percolation import (SiteGrid, crossing_frequency, has_crossing,
                               longest_open_path_exact, op_first_passage, op_run,
                               op_survival_frequency, sample_site_grid)
from geocp.rgg import GeometryConfig

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
