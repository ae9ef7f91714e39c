"""Command-line entry points.

Experiment definitions live in config files (see README for the grammar);
the `experiment` subcommand only takes the config path, output directory,
worker count and log level.  The remaining subcommands are small direct
tools around the library.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import percolation, rgg
from .contact import replica_seed, sample_extinction_times
from .experiments import (ResultTable, emit_plot_data, exp1_survival_plot,
                          parse_config, run_experiment)
from .graphs import CaterpillarSpec, build_caterpillar, build_complete, read_edge_list, write_edge_list

log = logging.getLogger("geocp")


def _add_generate(sub):
    p = sub.add_parser("generate", help="write a graph (and point cloud) to disk")
    p.add_argument("--kind", choices=["complete", "caterpillar", "rgg"], required=True)
    p.add_argument("--m", type=int, help="complete-graph size / caterpillar clique size")
    p.add_argument("--spine", type=int, help="caterpillar spine length")
    p.add_argument("--n", type=float, help="rgg volume parameter")
    p.add_argument("--r", type=float, help="rgg connection radius")
    p.add_argument("--d", type=int, default=2, help="rgg dimension")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="edge-list output path")
    p.add_argument("--points-out", help="optional point-cloud output path (rgg)")


def _cmd_generate(args) -> int:
    if args.kind == "complete":
        g = build_complete(args.m)
    elif args.kind == "caterpillar":
        g = build_caterpillar(CaterpillarSpec(args.spine, args.m)).graph
    else:
        cfg = rgg.GeometryConfig(args.n, args.r, args.d)
        cloud = rgg.sample_poisson_points(cfg, args.seed)
        g = rgg.build_rgg(cloud, args.r)
        if args.points_out:
            rgg.write_points(cloud, args.points_out)
    write_edge_list(g, args.out)
    log.info("wrote %s (%d vertices, %d edges)", args.out, g.vertex_count, g.edge_count)
    return 0


def _add_simulate(sub):
    p = sub.add_parser("simulate", help="sample extinction times on a graph")
    p.add_argument("--graph", help="edge-list file")
    p.add_argument("--complete", type=int, help="use a complete graph of this size")
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--t-cap", type=float, default=None,
                   help="censoring horizon; without one a supercritical run may not finish in any "
                        "practical time (K30 at lam 0.2 has E[tau] ~ 3.4e11): size it first with "
                        "geocp.exact.log_exact_clique_extinction")
    p.add_argument("--replicas", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True,
                   help="CSV of (seed, tau, censored); each row's seed reruns it in simulate_extinction")


def _cmd_simulate(args) -> int:
    if (args.graph is None) == (args.complete is None):
        raise SystemExit("exactly one of --graph / --complete is required")
    g = build_complete(args.complete) if args.complete else read_edge_list(args.graph)
    taus, cens = sample_extinction_times(g, args.lam, args.t_cap, args.seed, args.replicas)
    lines = ["seed,tau,censored"]
    for i in range(args.replicas):
        lines.append(f"{replica_seed(args.seed, i)},{float(taus[i])!r},{'true' if cens[i] else 'false'}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    log.info("wrote %d samples to %s (mean %.4g)", args.replicas, args.out, taus.mean())
    return 0


def _add_percolation(sub):
    p = sub.add_parser("percolation", help="site/oriented percolation tools")
    p.add_argument("--mode", choices=["path", "crossing", "op-survival"], required=True)
    p.add_argument("--dims", type=int, nargs="+", default=[16, 16])
    p.add_argument("--p", type=float, default=0.75)
    p.add_argument("--q", type=float, default=0.9)
    p.add_argument("--ell", type=int, default=8)
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--replicas", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="optional dump path")


def _cmd_percolation(args) -> int:
    if args.mode == "path":
        grid = percolation.sample_site_grid(args.dims, args.p, args.seed)
        path = percolation.find_long_open_path(grid)
        print(f"open sites: {int(grid.open.sum())}  path length: {len(path)}")
        if args.out:
            Path(args.out).write_text(percolation.path_to_text(path))
    elif args.mode == "crossing":
        freq, se = percolation.crossing_frequency(args.dims, args.p, args.replicas, args.seed)
        print(f"crossing frequency at p={args.p}: {freq:.4f} (se {se:.4f})")
    else:
        freq, se = percolation.op_survival_frequency(args.ell, args.q, args.steps,
                                                     args.replicas, args.seed)
        print(f"survival at step {args.steps}: {freq:.4f} (se {se:.4f})")
    return 0


def _add_embedding(sub):
    p = sub.add_parser("embedding", help="caterpillar-of-cliques embedding in one cloud")
    p.add_argument("--n", type=float, default=10_000.0)
    p.add_argument("--r-pow-d", type=float, default=100.0)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)


def _cmd_embedding(args) -> int:
    radius = args.r_pow_d ** (1.0 / args.d)
    cfg = rgg.GeometryConfig(args.n, radius, args.d)
    cloud = rgg.sample_poisson_points(cfg, args.seed)
    emb = rgg.find_caterpillar_embedding(cloud, cfg)
    if emb is None:
        print("no embedding found")
        return 1
    ok = rgg.embedding_is_valid(emb, cloud, radius)
    print(f"spine length {emb.spine_length}, block size {emb.block_size}, "
          f"valid: {ok}")
    return 0 if ok else 1


def _add_oracle(sub):
    p = sub.add_parser("oracle", help="simulator-vs-exact agreement battery")
    p.add_argument("--graphs", type=int, default=20)
    p.add_argument("--replicas", type=int, default=10_000)
    p.add_argument("--lams", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out-dir", default=None)


def _cmd_oracle(args) -> int:
    from .experiments import ExperimentConfig

    cfg = ExperimentConfig(
        "oracle-battery", args.seed, args.workers,
        contact={"lam": None, "t_cap": None, "replicas": args.replicas},
        options={"graphs": str(args.graphs), "lams": " ".join(str(x) for x in args.lams)},
    )
    table = run_experiment(cfg, out_dir=args.out_dir)
    for row in table.rows:
        print(f"graph {row[0]:3d} |V|={row[1]} |E|={row[2]} lam={row[3]:<4} "
              f"exact={row[4]:.5g} sim={row[5]:.5g} z={row[7]:+.2f}")
    print(f"max |z| = {table.summary['max_abs_z']:.3f}")
    return 0 if table.summary["all_within_3se"] else 1


def _add_experiment(sub):
    p = sub.add_parser("experiment", help="run a config-driven experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--workers", type=int, default=None)
    # no default here, so `geocp --log-level ... experiment` keeps the top-level value
    p.add_argument("--log-level", default=argparse.SUPPRESS)


def _cmd_experiment(args) -> int:
    cfg = parse_config(args.config)
    table = run_experiment(cfg, out_dir=args.out_dir, workers=args.workers)
    log.info("experiment %s: %d rows -> %s", cfg.kind, len(table.rows), args.out_dir)
    print(table.summary_json())
    return 0


def _add_plot_data(sub):
    p = sub.add_parser("plot-data", help="project a result CSV into tidy (x, y, series)")
    p.add_argument("--results", required=True, help="directory holding <kind>.csv")
    p.add_argument("--kind", required=True)
    p.add_argument("--x", default=None)
    p.add_argument("--ys", nargs="+", default=None)
    p.add_argument("--out", required=True)


_PLOT_DEFAULTS = {
    "clique-scaling": ("scale_m_log_lam_m", ["log_mean_extinction"]),
    "percolation-sweep": ("p", ["crossing_freq"]),
    "embedding": ("r_pow_d", ["spine_length"]),
    "rgg-tau": ("replica", ["tau"]),
    "d1-regimes": ("replica", ["largest_component"]),
}


def _cmd_plot_data(args) -> int:
    import csv

    path = Path(args.results) / f"{args.kind}.csv"
    with open(path) as fh:
        reader = csv.reader(fh)
        columns = tuple(next(reader))
        rows = []
        for raw in reader:
            row = []
            for x in raw:
                try:
                    row.append(float(x))
                except ValueError:
                    row.append(x)
            rows.append(tuple(row))
    table = ResultTable(args.kind, columns, rows, {})
    if args.kind == "exp1-test" and args.x is None:
        out = exp1_survival_plot(table)
    else:
        x, ys = args.x, args.ys
        if x is None:
            if args.kind not in _PLOT_DEFAULTS:
                raise SystemExit(f"no default projection for {args.kind}; pass --x/--ys")
            x, ys = _PLOT_DEFAULTS[args.kind]
        out = emit_plot_data(table, x, ys or [])
    Path(args.out).write_text(out.to_csv_text())
    log.info("wrote %s", args.out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="geocp",
                                     description="epidemic/percolation lab on geometric graphs")
    parser.add_argument("--log-level", default="warning")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_simulate(sub)
    _add_percolation(sub)
    _add_embedding(sub)
    _add_oracle(sub)
    _add_experiment(sub)
    _add_plot_data(sub)
    args = parser.parse_args(argv)
    level = args.log_level
    logging.basicConfig(level=getattr(logging, level.upper(), logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    handlers = {
        "generate": _cmd_generate,
        "simulate": _cmd_simulate,
        "percolation": _cmd_percolation,
        "embedding": _cmd_embedding,
        "oracle": _cmd_oracle,
        "experiment": _cmd_experiment,
        "plot-data": _cmd_plot_data,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
