"""Declarative experiments: parse a config, fan replicas out over workers,
merge in replica order, emit CSV rows plus a JSON summary.

Determinism contract: replica i always runs on the seed derived from
(master seed, i) by the 64-bit mix in `rng`, results are merged in replica
order, and floats are serialized with shortest-roundtrip repr, so a config
plus master seed fixes every output byte regardless of worker count.
"""

from __future__ import annotations

import configparser
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bounds, exact, percolation, rgg, stats
from .contact import sample_extinction_times
from .errors import ABOVE_ZERO, BELOW_INF, as_int, as_real, as_seed
from .graphs import Graph, random_connected_graph
from .rng import TAG_BATTERY, TAG_D1_CONNECT, TAG_D1_FRAGMENT, TAG_RGG_TAU, derive_seed, mix64

class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    workers: int = 1
    geometry: dict = field(default_factory=dict)
    contact: dict = field(default_factory=dict)
    percolation: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(
                f"[experiment] kind: unknown kind {self.kind!r}; "
                f"expected one of {', '.join(EXPERIMENT_KINDS)}"
            )
        self.seed = _checked(as_seed, self.seed)
        self.workers = _workers(self.workers)


def _checked(rule, *args):
    """rule(*args), its ValueError raised as a ConfigError."""
    try:
        return rule(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _workers(x) -> int:
    return _checked(as_int, x, "[experiment] workers: must be an integer >= 1", 1)


def _section(parser, section, casts: dict) -> dict:
    """The keys of `section` that the file gives, each cast by `casts`; the
    runners fill in the defaults."""
    out = {}
    if not parser.has_section(section):
        return out
    for key, cast in casts.items():
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                out[key] = cast(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} ({exc})") from None
    return out


def parse_config(path) -> ExperimentConfig:
    """Read the flat sectioned key-value config format.

    Sections: [experiment] (kind, seed, workers), [geometry] (n, r, d, b, B),
    [contact] (lam, t_cap, replicas), [percolation] (dims, p_values,
    replicas) and [options] for kind-specific knobs.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path} not found or unreadable")
    if not parser.has_section("experiment"):
        raise ConfigError("[experiment] section missing")
    head = _section(parser, "experiment", {"kind": str, "seed": int, "workers": int})
    for key in ("kind", "seed"):
        if key not in head:
            raise ConfigError(f"[experiment] {key}: required key missing")
    return ExperimentConfig(
        **head,
        geometry=_section(parser, "geometry", {"n": float, "r": float, "d": int, "b": float, "B": float}),
        contact=_section(parser, "contact", {"lam": float, "t_cap": float, "replicas": int}),
        percolation=_section(parser, "percolation",
                             {"dims": _int_list, "p_values": _float_list, "replicas": int}),
        options=dict(parser.items("options")) if parser.has_section("options") else {},
    )


# ---------------------------------------------------------------------------
# result tables
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


@dataclass
class ResultTable:
    kind: str
    columns: tuple[str, ...]
    rows: list[tuple]
    summary: dict

    def to_csv_text(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_fmt(x) for x in row])
        return buf.getvalue()

    def summary_json(self) -> str:
        """The summary as strict JSON: NaN and infinities are written as null."""
        def finite(x):
            if isinstance(x, dict):
                return {k: finite(v) for k, v in x.items()}
            if isinstance(x, (list, tuple)):
                return [finite(v) for v in x]
            return None if isinstance(x, float) and not math.isfinite(x) else x

        return json.dumps(finite(self.summary), sort_keys=True, indent=2, allow_nan=False)

    def write(self, out_dir) -> tuple[Path, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{self.kind}.csv"
        json_path = out / f"{self.kind}_summary.json"
        csv_path.write_text(self.to_csv_text())
        json_path.write_text(self.summary_json() + "\n")
        return csv_path, json_path


# ---------------------------------------------------------------------------
# worker helpers (top level so they pickle)
# ---------------------------------------------------------------------------


class ReplicaError(RuntimeError):
    pass


def _guarded(fn, item):
    try:
        return fn(item)
    except Exception as exc:
        raise ReplicaError(f"replica failed in {fn.__name__} (args={item!r}): {exc}") from exc


def _parallel(fn, items, workers):
    """Order-preserving map; a failing replica aborts the run with its
    arguments (including the derived seed) in the diagnostic."""
    if workers <= 1 or len(items) <= 1:
        return [_guarded(fn, item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        futures = [ex.submit(_guarded, fn, item) for item in items]
        return [f.result() for f in futures]


def _battery_cell(args):
    g, lam, replicas, cell_seed = args
    exact_mean = exact.exact_expected_extinction_ctmc(g, lam)
    taus, censored = sample_extinction_times(g, lam, None, cell_seed, replicas)
    mean = float(taus.mean())
    se = float(taus.std(ddof=1) / math.sqrt(replicas))
    z = (mean - exact_mean) / se if se > 0 else 0.0
    return g.vertex_count, g.edge_count, exact_mean, mean, se, z, cell_seed


def _rgg_tau_replica(args):
    geo, lam, t_cap, master, idx = args
    cfg = rgg.GeometryConfig(geo["n"], geo["r"], geo["d"], None, geo["b"], geo["B"])
    rep_seed = derive_seed(master, idx)
    cloud = rgg.sample_poisson_points(cfg, rep_seed)
    graph = rgg.build_rgg(cloud, cfg.radius)
    taus, cens = sample_extinction_times(graph, lam, t_cap, mix64(rep_seed, TAG_RGG_TAU), 1)
    return idx, rep_seed, len(cloud), graph.edge_count, float(taus[0]), bool(cens[0])


def _sweep_point(args):
    dims, p, replicas, seed = args
    freq, se = percolation.crossing_frequency(dims, p, replicas, seed)
    return p, freq, se


def _embedding_cell(args):
    geo, r_pow_d, idx, master = args
    d = geo["d"]
    radius = r_pow_d ** (1.0 / d)
    cfg = rgg.GeometryConfig(geo["n"], radius, d, None, geo["b"], geo["B"])
    rep_seed = derive_seed(master, idx)
    cloud = rgg.sample_poisson_points(cfg, rep_seed)
    emb = rgg.find_caterpillar_embedding(cloud, cfg)
    side = radius / (2.0 * math.sqrt(d))
    mu_half = geo["b"] * side**d / 2.0
    if emb is None:
        return r_pow_d, idx, rep_seed, False, 0, 0, mu_half
    ok = rgg.embedding_is_valid(emb, cloud, radius)
    min_block = min(len(b) for b in emb.blocks)
    return r_pow_d, idx, rep_seed, bool(ok), emb.spine_length, min_block, mu_half


# fixed seed salts per d = 1 regime ("CN", "FR"); str hashes vary per process
_D1_REGIME_TAGS = {"connect": TAG_D1_CONNECT, "fragment": TAG_D1_FRAGMENT}


def _d1_cell(args):
    geo, regime, factor, idx, master = args
    n = geo["n"]
    radius = factor * math.log(n)
    cfg = rgg.GeometryConfig(n, radius, 1, None, geo["b"], geo["B"])
    rep_seed = derive_seed(master, mix64(idx, _D1_REGIME_TAGS[regime]))
    cloud = rgg.sample_poisson_points(cfg, rep_seed)
    coords = np.sort(cloud.points[:, 0])
    if coords.size == 0:
        return regime, idx, rep_seed, radius, False, 0
    gaps = np.diff(coords)
    # interval graphs split exactly at gaps beyond the radius
    connected = bool(gaps.size == 0 or gaps.max() <= radius)
    breaks = np.nonzero(gaps > radius)[0]
    sizes = np.diff(np.concatenate(([0], breaks + 1, [coords.size])))
    largest = int(sizes.max())
    return regime, idx, rep_seed, radius, connected, largest


# ---------------------------------------------------------------------------
# experiment kinds
# ---------------------------------------------------------------------------


def _float_list(raw) -> list[float]:
    return [float(x) for x in str(raw).split()]


def _int_list(raw) -> list[int]:
    return [int(float(x)) for x in str(raw).split()]


def _opt(cfg: ExperimentConfig, key: str, cast, default):
    raw = cfg.options.get(key)
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[options] {key}: cannot parse {raw!r} ({exc})") from None


_GEOMETRY_DEFAULTS = {"r": None, "d": 2, "b": 1.0, "B": 1.0}


def _geometry(cfg: ExperimentConfig, required: tuple[str, ...], fallback: dict | None = None) -> dict:
    """[geometry] over _GEOMETRY_DEFAULTS; `fallback` stands in for a missing
    section, and a given section must name every `required` key."""
    geo = cfg.geometry or fallback or {}
    for key in required:
        if geo.get(key) is None:
            raise ConfigError(f"[geometry] {key}: required key missing for {cfg.kind}")
    return {**_GEOMETRY_DEFAULTS, **geo}


def _contact_lam(cfg: ExperimentConfig, default: float) -> float:
    """[contact] lam, or `default` when it is not given."""
    lam = cfg.contact.get("lam")
    if lam is None:
        return default
    return _checked(as_real, lam, "[contact] lam: must be positive and finite", ABOVE_ZERO, BELOW_INF)


def _run_clique_scaling(cfg: ExperimentConfig, workers: int) -> ResultTable:
    lam = _contact_lam(cfg, 1.0)
    sizes = _opt(cfg, "sizes", _int_list, list(range(50, 501, 50)))
    rows = []
    xs, ys = [], []
    for m in sizes:
        x = m * math.log(lam * m)
        y = exact.log_exact_clique_extinction(m, lam)
        xs.append(x)
        ys.append(y)
        rows.append((m, x, y))
    slope, intercept, r2 = stats.fit_loglinear(xs, ys)
    summary = {"kind": cfg.kind, "seed": cfg.seed, "lam": lam, "slope": slope, "intercept": intercept,
               "r_squared": r2, "sizes": sizes}
    return ResultTable(cfg.kind, ("m", "scale_m_log_lam_m", "log_mean_extinction"), rows, summary)


def _run_oracle_battery(cfg: ExperimentConfig, workers: int) -> ResultTable:
    replicas = cfg.contact.get("replicas", 10_000)
    lams = _opt(cfg, "lams", _float_list, [0.5, 1.0, 2.0])
    n_graphs = _opt(cfg, "graphs", int, 20)
    mean_cap = _opt(cfg, "mean_cap", float, 400.0)
    graphs = battery_graphs(cfg.seed, n_graphs, max(lams), mean_cap)
    cells = []
    for gi, g in enumerate(graphs):
        for li, lam in enumerate(lams):
            cell_seed = derive_seed(cfg.seed, mix64(gi, li))
            cells.append((g, lam, replicas, cell_seed))
    results = _parallel(_battery_cell, cells, workers)
    rows = []
    worst = 0.0
    all_ok = True
    i = 0
    for gi in range(len(graphs)):
        for lam in lams:
            v, e, exact_mean, mean, se, z, cell_seed = results[i]
            i += 1
            ok = abs(z) <= 3.0
            all_ok = all_ok and ok
            worst = max(worst, abs(z))
            rows.append((gi, v, e, lam, exact_mean, mean, se, z, ok, cell_seed))
    summary = {"kind": cfg.kind, "seed": cfg.seed, "replicas": replicas,
               "graphs": len(graphs), "lams": list(lams), "max_abs_z": worst,
               "all_within_3se": all_ok}
    return ResultTable(cfg.kind, ("graph", "vertices", "edges", "lam", "exact_mean",
                                  "sim_mean", "sim_se", "z", "within_3se", "cell_seed"),
                       rows, summary)


def battery_graphs(seed: int, count: int, lam_max: float, mean_cap: float) -> list[Graph]:
    """Random connected graphs (<= 7 vertices) for oracle batteries.

    Sparse by construction (tree plus at most two extra edges) and resampled
    while the exact mean extinction time at lam_max exceeds `mean_cap`, so a
    battery stays inside its runtime budget; the agreement gate itself does
    not depend on which graphs are drawn.
    """
    seed = as_seed(seed)
    graphs = []
    salt = 0
    while len(graphs) < count:
        gseed = mix64(seed, TAG_BATTERY, salt)
        salt += 1
        n = 3 + gseed % 5
        extras = mix64(gseed, 1) % 3
        g = random_connected_graph(n, extras, gseed)
        if exact.exact_expected_extinction_ctmc(g, lam_max) > mean_cap:
            continue
        graphs.append(g)
    return graphs


def _run_exp1(cfg: ExperimentConfig, workers: int) -> ResultTable:
    m = _opt(cfg, "m", int, 30)
    count = _opt(cfg, "count", int, 300)
    lam = _contact_lam(cfg, 0.5)
    taus = exact.sample_clique_extinction_times(m, lam, count, derive_seed(cfg.seed, 0))
    mean = float(taus.mean())
    normalized = taus / mean
    ks = stats.ks_to_exp1(normalized)
    rows = [(i, float(t), float(x)) for i, (t, x) in enumerate(zip(taus, normalized))]
    summary = {"kind": cfg.kind, "seed": cfg.seed, "m": m, "lam": lam, "count": count,
               "mean_tau": mean, "ks_to_exp1": ks,
               "log_mean_exact": exact.log_exact_clique_extinction(m, lam)}
    return ResultTable(cfg.kind, ("replica", "tau", "normalized"), rows, summary)


def _run_percolation_sweep(cfg: ExperimentConfig, workers: int) -> ResultTable:
    dims = tuple(cfg.percolation.get("dims", [16, 16]))
    p_values = cfg.percolation.get("p_values", [0.45, 0.55, 0.65, 0.75])
    replicas = cfg.percolation.get("replicas", 50)
    cells = [(dims, float(p), replicas, derive_seed(cfg.seed, i))
             for i, p in enumerate(p_values)]
    results = _parallel(_sweep_point, cells, workers)
    rows = [(p, freq, se) for p, freq, se in results]
    threshold = None
    for (p0, f0, _), (p1, f1, _) in zip(results, results[1:]):
        if f0 < 0.5 <= f1:
            threshold = p0 + (0.5 - f0) * (p1 - p0) / (f1 - f0)
            break
    summary = {"kind": cfg.kind, "seed": cfg.seed, "dims": list(dims), "replicas": replicas,
               "crossing_threshold_estimate": threshold}
    return ResultTable(cfg.kind, ("p", "crossing_freq", "se"), rows, summary)


def _run_embedding(cfg: ExperimentConfig, workers: int) -> ResultTable:
    geo = _geometry(cfg, ("n",), {"n": 10_000.0})
    r_values = _opt(cfg, "r_pow_d_values", _float_list, [50.0, 100.0, 200.0])
    per_cell = _opt(cfg, "seeds_per_cell", int, 20)
    cells = [(geo, float(rv), idx, mix64(cfg.seed, int(rv * 1000)))
             for rv in r_values for idx in range(per_cell)]
    results = _parallel(_embedding_cell, cells, workers)
    rows = list(results)
    summary_cells = {}
    for rv in r_values:
        sub = [r for r in results if r[0] == rv]
        succ = [r for r in sub if r[3] and r[4] >= 2 and r[5] >= r[6]]
        summary_cells[str(rv)] = {
            "success_rate": len(succ) / len(sub) if sub else 0.0,
            "mean_spine_length": float(np.mean([r[4] for r in sub])) if sub else 0.0,
        }
    summary = {"kind": cfg.kind, "seed": cfg.seed, "seeds_per_cell": per_cell, "cells": summary_cells}
    return ResultTable(cfg.kind, ("r_pow_d", "replica", "replica_seed", "valid",
                                  "spine_length", "min_block", "mu_half"), rows, summary)


def _run_d1(cfg: ExperimentConfig, workers: int) -> ResultTable:
    geo = _geometry(cfg, ("n",), {"n": 100_000.0, "d": 1})
    connect_factor = _opt(cfg, "connect_factor", float, 4.0)
    frag_factor = _opt(cfg, "frag_factor", float, 0.1)
    per_cell = _opt(cfg, "seeds_per_cell", int, 20)
    cells = []
    for regime, factor in (("connect", connect_factor), ("fragment", frag_factor)):
        for idx in range(per_cell):
            cells.append((geo, regime, factor, idx, cfg.seed))
    results = _parallel(_d1_cell, cells, workers)
    rows = list(results)
    n = geo["n"]
    frag_bound = n ** (2.0 / 3.0)
    connect_rate = np.mean([r[4] for r in results if r[0] == "connect"])
    frag_rate = np.mean([r[5] <= frag_bound for r in results if r[0] == "fragment"])
    summary = {"kind": cfg.kind, "seed": cfg.seed, "n": n, "seeds_per_cell": per_cell,
               "connect_factor": connect_factor, "frag_factor": frag_factor,
               "connected_rate": float(connect_rate),
               "small_component_rate": float(frag_rate),
               "component_bound": frag_bound}
    return ResultTable(cfg.kind, ("regime", "replica", "replica_seed", "radius",
                                  "connected", "largest_component"), rows, summary)


def _run_rgg_tau(cfg: ExperimentConfig, workers: int) -> ResultTable:
    geo = _geometry(cfg, ("n", "r"))
    lam = _contact_lam(cfg, 1.0)
    t_cap = cfg.contact.get("t_cap")
    replicas = cfg.contact.get("replicas", 100)
    cells = [(geo, lam, t_cap, cfg.seed, i) for i in range(replicas)]
    results = _parallel(_rgg_tau_replica, cells, workers)
    rows = list(results)
    mean_v = float(np.mean([r[2] for r in results])) if results else 0.0
    mean_e = float(np.mean([r[3] for r in results])) if results else 0.0
    tau = stats.tau_summary([r[4] for r in results], [r[5] for r in results])
    try:
        scale = bounds.rgg_log_tau_scale(geo["n"], lam, geo["r"], geo["d"])
    except ValueError:
        scale = None
    summary = {"kind": cfg.kind, "seed": cfg.seed, "lam": lam, "t_cap": t_cap, "replicas": replicas,
               "geometry": {k: geo[k] for k in ("n", "r", "d", "b", "B")},
               "mean_vertices": mean_v, "mean_edges": mean_e,
               "tau": tau, "log_tau_scale": scale,
               "log_f_bound_at_means": bounds.log_extinction_time_bound(
                   max(1, int(mean_v)), int(mean_e), lam)}
    return ResultTable(cfg.kind, ("replica", "replica_seed", "vertices", "edges",
                                  "tau", "censored"), rows, summary)


_RUNNERS = {
    "rgg-tau": _run_rgg_tau,
    "clique-scaling": _run_clique_scaling,
    "exp1-test": _run_exp1,
    "percolation-sweep": _run_percolation_sweep,
    "embedding": _run_embedding,
    "d1-regimes": _run_d1,
    "oracle-battery": _run_oracle_battery,
}
EXPERIMENT_KINDS = tuple(_RUNNERS)


def run_experiment(cfg: ExperimentConfig, out_dir=None, workers: int | None = None) -> ResultTable:
    """Run one experiment; writes <kind>.csv and <kind>_summary.json when
    out_dir is given.  Output bytes depend only on (config, master seed)."""
    w = _workers(workers) if workers is not None else cfg.workers
    table = _RUNNERS[cfg.kind](cfg, w)
    if out_dir is not None:
        table.write(out_dir)
    return table
