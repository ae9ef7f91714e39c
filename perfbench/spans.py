"""Spans around the benchmark's calls into geocp, and the per-layer metrics
derived from them.

A span covers one call into a public geocp function (or one batch of
calls, for functions too cheap to time one by one).  Its name is the
module and function, plus a few counts taken from the call's result.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    round: int
    name: str
    start: float
    end: float
    counts: dict = field(default_factory=dict)


class Tracer:
    """Calls geocp functions for a workload round, recording a span per call
    while `enabled`.  Counts every call made and every call that raised."""

    def __init__(self):
        self.enabled = False
        self.round = 0
        self.spans: list[Span] = []
        self.attempted = 0
        self.failed = 0

    def call(self, name, fn, *args, counts=None, **kwargs):
        self.attempted += 1
        w0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise
        if self.enabled:
            self.spans.append(Span(self.round, name, w0, time.perf_counter(), counts(out) if counts else {}))
        return out

    def write(self, path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": [asdict(s) for s in self.spans]}, fh)


# (metric, unit, span names, count key): a metric without a count key is
# the seconds its spans take per round; with one, that count per second.
LAYER_METRICS = (
    ("exact.ctmc.s", "s", ("exact.ctmc",), None),
    ("exact.ctmc_v12.s", "s", ("exact.ctmc_v12",), None),
    ("exact.ctmc.states_per_s", "1/s", ("exact.ctmc", "exact.ctmc_v12"), "states"),
    ("exact.sample_clique_extinction_times.s", "s", ("exact.sample_clique_extinction_times",), None),
    ("contact.sample_extinction_times.s", "s", ("contact.sample_extinction_times",), None),
    ("contact.replicas_per_s", "1/s", ("contact.sample_extinction_times",), "replicas"),
    ("contact.sim_time_per_s", "tu/s", ("contact.sample_extinction_times",), "sim_time"),
    ("contact.prepare.s", "s", ("contact.prepare",), None),
    ("contact.birth_death_clique_simulate.s", "s", ("contact.birth_death_clique_simulate",), None),
    ("contact.record_event_window.s", "s", ("contact.record_event_window",), None),
    ("contact.forward_from_record.s", "s", ("contact.forward_from_record",), None),
    ("contact.dual_from_record.s", "s", ("contact.dual_from_record",), None),
    ("contact.simulate_coupled.s", "s", ("contact.simulate_coupled",), None),
    ("contact.simulate_coupled.events_per_s", "1/s", ("contact.simulate_coupled",), "events"),
    ("contact.simulate_rate_coupled.s", "s", ("contact.simulate_rate_coupled",), None),
    ("contact.lit_snapshots.s", "s", ("contact.lit_snapshots",), None),
    ("rgg.sample_poisson_points.s", "s", ("rgg.sample_poisson_points",), None),
    ("rgg.build_rgg.s", "s", ("rgg.build_rgg",), None),
    ("rgg.build_rgg.edges_per_s", "1/s", ("rgg.build_rgg",), "edges"),
    ("rgg.find_caterpillar_embedding.s", "s", ("rgg.find_caterpillar_embedding",), None),
    ("percolation.crossing_frequency.s", "s", ("percolation.crossing_frequency",), None),
    ("percolation.crossing_frequency.grids_per_s", "1/s", ("percolation.crossing_frequency",), "grids"),
    ("percolation.find_long_open_path.s", "s", ("percolation.find_long_open_path",), None),
    ("percolation.find_long_open_path.sites_per_s", "1/s", ("percolation.find_long_open_path",), "sites"),
    ("percolation.glue_plane_paths.s", "s", ("percolation.glue_plane_paths",), None),
    ("percolation.op_survival_frequency.s", "s", ("percolation.op_survival_frequency",), None),
    ("percolation.op_survival_frequency.replica_steps_per_s", "1/s",
     ("percolation.op_survival_frequency",), "replica_steps"),
    ("percolation.op_extinction_profile_exact.s", "s", ("percolation.op_extinction_profile_exact",), None),
    ("percolation.op_run.s", "s", ("percolation.op_run",), None),
    ("percolation.op_first_passage.s", "s", ("percolation.op_first_passage",), None),
    ("percolation.op_hashed.site_steps_per_s", "1/s", ("percolation.op_run",), "site_steps"),
    ("rng.uniform_from_key.calls_per_s", "1/s", ("rng.uniform_from_key",), "calls"),
)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Median over traced rounds of each layer metric; 0 for a layer the
    workload never calls."""
    rounds = sorted({s.round for s in spans})
    out = {}
    for metric, _unit, names, key in LAYER_METRICS:
        per_round = []
        for r in rounds:
            mine = [s for s in spans if s.round == r and s.name in names]
            busy = sum(s.end - s.start for s in mine)
            if key is None:
                per_round.append(busy)
            else:
                per_round.append(sum(s.counts[key] for s in mine) / busy if busy > 0 else 0.0)
        out[metric] = float(statistics.median(per_round)) if per_round else 0.0
    return out
