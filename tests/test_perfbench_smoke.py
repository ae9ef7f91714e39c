"""One round of each benchmark workload, so that a name the benchmark calls
which goes missing, or a round whose outputs stop passing its checks,
fails the test suite rather than only a benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["small-graph-oracle", "rgg-extinction", "percolation",
                                      "coupled-clocks"])
def test_one_benchmark_round(workload):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                           "--seconds", "0.1"],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"], proc.stderr
    assert report["failed"] == 0
    assert report["attempted"] > 0
