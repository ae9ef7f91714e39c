import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from geocp.cli import main as cli_main
from geocp.contact import ContactConfig, simulate_extinction
from geocp.graphs import build_complete
from geocp.experiments import (ConfigError, ExperimentConfig, ResultTable,
                               emit_plot_data, exp1_survival_plot, parse_config,
                               run_experiment)

MINIMAL_CFG = """
[experiment]
kind = clique-scaling
seed = 42

[contact]
lam = 1.0

[options]
sizes = 50 100 150 200
"""


def test_parse_config_roundtrip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(MINIMAL_CFG)
    cfg = parse_config(path)
    assert cfg.kind == "clique-scaling"
    assert cfg.seed == 42
    assert cfg.options["sizes"] == "50 100 150 200"


def test_parse_config_diagnostics(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[experiment]\nkind = nonsense\nseed = 1\n")
    with pytest.raises(ConfigError, match=r"\[experiment\] kind"):
        parse_config(path)
    path2 = tmp_path / "bad2.cfg"
    path2.write_text("[experiment]\nkind = rgg-tau\n")
    with pytest.raises(ConfigError, match=r"\[experiment\] seed"):
        parse_config(path2)
    path3 = tmp_path / "bad3.cfg"
    path3.write_text("[experiment]\nkind = rgg-tau\nseed = x\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config(path3)
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "missing.cfg")


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig("nope", 1)


def test_clique_scaling_table(tmp_path):
    cfg = ExperimentConfig("clique-scaling", 42, contact={"lam": 1.0},
                           options={"sizes": "50 100 150 200"})
    table = run_experiment(cfg, out_dir=tmp_path)
    assert table.summary["r_squared"] > 0.99
    assert table.summary["slope"] > 0
    assert (tmp_path / "clique-scaling.csv").exists()
    assert (tmp_path / "clique-scaling_summary.json").exists()
    summary = json.loads((tmp_path / "clique-scaling_summary.json").read_text())
    assert summary["slope"] == table.summary["slope"]


def test_runners_reject_bad_lam():
    for kind, options in (("clique-scaling", {"sizes": "50 100 150"}), ("exp1-test", {"count": "5"}),
                          ("rgg-tau", {})):
        geometry = {"n": 20.0, "r": 1.5, "d": 2, "b": 1.0, "B": 1.0}
        for bad in (-1.0, 0.0, float("nan"), float("inf")):
            cfg = ExperimentConfig(kind, 1, geometry=geometry,
                                   contact={"lam": bad, "replicas": 1}, options=options)
            with pytest.raises(ConfigError, match=r"\[contact\] lam"):
                run_experiment(cfg)
    # an absent lam still means the runner's default
    cfg = ExperimentConfig("clique-scaling", 42, contact={"lam": None}, options={"sizes": "50 100 150"})
    assert run_experiment(cfg).summary["lam"] == 1.0


def test_exp1_table_and_plot():
    cfg = ExperimentConfig("exp1-test", 3, contact={"lam": 0.5},
                           options={"m": "30", "count": "120"})
    table = run_experiment(cfg)
    assert len(table.rows) == 120
    assert 0 <= table.summary["ks_to_exp1"] <= 1
    plot = exp1_survival_plot(table)
    assert plot.columns == ("x", "y", "series")
    assert len(plot.rows) == 240


def test_emit_plot_data_unknown_column():
    table = ResultTable("demo", ("a", "b"), [(1, 2)], {})
    out = emit_plot_data(table, "a", ["b"])
    assert out.rows == [(1, 2, "b")]
    with pytest.raises(ValueError, match="unknown column"):
        emit_plot_data(table, "zzz", ["b"])
    # empty table projects to a header-only file
    empty = emit_plot_data(ResultTable("demo", ("a", "b"), [], {}), "a", ["b"])
    assert empty.to_csv_text() == "x,y,series\n"


def test_oracle_battery_small():
    cfg = ExperimentConfig("oracle-battery", 90210,
                           contact={"lam": None, "t_cap": None, "replicas": 3000},
                           options={"graphs": "4", "lams": "0.5 1.0"})
    table = run_experiment(cfg)
    assert len(table.rows) == 8
    assert all(abs(r[7]) < 5 for r in table.rows)


def test_config_defaults_live_in_the_runners(tmp_path):
    # an absent key takes the runner's default whether or not its section exists
    head = "[experiment]\nkind = oracle-battery\nseed = 5\n"
    opts = "[options]\ngraphs = 1\nlams = 0.5\nmean_cap = 150\n"
    tables = []
    for contact in ("", "[contact]\nt_cap = 100\n"):
        path = tmp_path / "battery.cfg"
        path.write_text(head + contact + opts)
        tables.append(run_experiment(parse_config(path)))
    assert [t.summary["replicas"] for t in tables] == [10_000, 10_000]
    assert tables[0].rows == tables[1].rows


@pytest.mark.parametrize("kind", ["embedding", "d1-regimes", "rgg-tau"])
def test_geometry_section_without_n_is_a_config_error(tmp_path, kind):
    path = tmp_path / "geo.cfg"
    path.write_text(f"[experiment]\nkind = {kind}\nseed = 1\n\n[geometry]\nd = 2\nr = 1.5\n")
    with pytest.raises(ConfigError, match=r"\[geometry\] n: required"):
        run_experiment(parse_config(path))


def test_rgg_tau_runs_and_reports_censoring(tmp_path):
    cfg = ExperimentConfig("rgg-tau", 13,
                           geometry={"n": 150.0, "r": 1.5, "d": 2, "b": 1.0, "B": 1.0},
                           contact={"lam": 0.1, "t_cap": 40.0, "replicas": 10})
    table = run_experiment(cfg, out_dir=tmp_path)
    assert len(table.rows) == 10
    assert "censored_count" in table.summary["tau"]
    text = (tmp_path / "rgg-tau.csv").read_text()
    assert text.splitlines()[0] == "replica,replica_seed,vertices,edges,tau,censored"


def test_worker_determinism_small(tmp_path):
    cfg = ExperimentConfig("embedding", 7,
                           geometry={"n": 2000.0, "r": None, "d": 2, "b": 1.0, "B": 1.0},
                           options={"r_pow_d_values": "100", "seeds_per_cell": "4"})
    t1 = run_experiment(cfg, out_dir=tmp_path / "w1", workers=1)
    t4 = run_experiment(cfg, out_dir=tmp_path / "w4", workers=4)
    assert (tmp_path / "w1/embedding.csv").read_bytes() == (tmp_path / "w4/embedding.csv").read_bytes()
    assert t1.rows == t4.rows


def test_cli_end_to_end(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(MINIMAL_CFG)
    rc = cli_main(["experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "clique-scaling.csv").exists()
    rc = cli_main(["plot-data", "--results", str(tmp_path / "out"),
                   "--kind", "clique-scaling", "--out", str(tmp_path / "plot.csv")])
    assert rc == 0
    assert (tmp_path / "plot.csv").read_text().startswith("x,y,series")


def test_cli_generate_simulate(tmp_path):
    rc = cli_main(["generate", "--kind", "caterpillar", "--spine", "2", "--m", "3",
                   "--out", str(tmp_path / "cat.edges")])
    assert rc == 0
    rc = cli_main(["simulate", "--graph", str(tmp_path / "cat.edges"), "--lam", "0.3",
                   "--replicas", "5", "--seed", "1", "--out", str(tmp_path / "tau.csv")])
    assert rc == 0
    lines = (tmp_path / "tau.csv").read_text().splitlines()
    assert lines[0] == "seed,tau,censored"
    assert len(lines) == 6
    rc = cli_main(["generate", "--kind", "rgg", "--n", "100", "--r", "1.5",
                   "--out", str(tmp_path / "g.edges"),
                   "--points-out", str(tmp_path / "pts.txt")])
    assert rc == 0
    assert (tmp_path / "pts.txt").exists()


def test_cli_simulate_seed_column_reruns_each_row(tmp_path):
    out = tmp_path / "tau.csv"
    assert cli_main(["simulate", "--complete", "4", "--lam", "1.0", "--t-cap", "3.0",
                     "--replicas", "6", "--seed", "1", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 6
    assert {censored for _, _, censored in rows} == {"true", "false"}
    for seed, tau, censored in rows:
        s = simulate_extinction(build_complete(4), ContactConfig(1.0, 3.0, seed=int(seed)))
        assert repr(s.tau) == tau
        assert s.censored == (censored == "true")


def test_d1_regimes_independent_of_hash_seed(tmp_path):
    """Replica seeds must not depend on Python's per-process string hashing."""
    root = Path(__file__).resolve().parents[1]
    outputs = []
    for hash_seed in ("1", "2"):
        out_dir = tmp_path / f"hash{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"),
                                                            os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "geocp.cli", "experiment",
                        "--config", str(root / "configs/suite/d1-regimes.cfg"),
                        "--out-dir", str(out_dir), "--workers", "1"],
                       env=env, check=True, capture_output=True, timeout=300)
        outputs.append({f.name: f.read_bytes() for f in sorted(out_dir.iterdir())})
    assert sorted(outputs[0]) == ["d1-regimes.csv", "d1-regimes_summary.json"]
    assert outputs[0] == outputs[1]


def test_cli_percolation_and_embedding(capsys):
    assert cli_main(["percolation", "--mode", "path", "--dims", "8", "8",
                     "--p", "0.9", "--seed", "1"]) == 0
    assert cli_main(["percolation", "--mode", "op-survival", "--ell", "3",
                     "--q", "0.8", "--steps", "4", "--replicas", "200", "--seed", "2"]) == 0
    assert cli_main(["embedding", "--n", "2000", "--r-pow-d", "100", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "path length" in out and "survival" in out and "spine length" in out


def test_parallel_failure_names_the_replica():
    from geocp.experiments import ReplicaError, _parallel

    def boom(item):
        raise ValueError("kaput")

    with pytest.raises(ReplicaError, match=r"args=\(1, 99\)"):
        _parallel(boom, [(1, 99)], workers=1)


def test_cli_log_level_before_and_after_subcommand(tmp_path, monkeypatch):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(MINIMAL_CFG)
    levels = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: levels.append(kw["level"]))
    run = ["experiment", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]
    assert cli_main(["--log-level", "debug"] + run) == 0
    assert cli_main(run + ["--log-level", "error"]) == 0
    assert cli_main(["--log-level", "debug"] + run + ["--log-level", "error"]) == 0
    assert cli_main(run) == 0
    assert levels == [logging.DEBUG, logging.ERROR, logging.ERROR, logging.WARNING]
