"""Benchmark for geocp: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload small-graph-oracle --seed 1 --seconds 8 --trace 0

The run sets the workload up from the seed, then makes a fixed number of
rounds of the same calls into geocp, checking every round's outputs.
--seconds sets that number: ceil(seconds / the workload's ROUND_S), where
ROUND_S is the wall time of one round on the reference host, so the run
measures about --seconds there.  The number does not depend on the
host's speed, so neither does the work a run does nor what it leaves
alive.  The last line of standard output is one JSON object: correct,
attempted, failed, and the metrics.

--trace 0 reports the end-to-end metrics: setup_s (from the start of this
script to the first timed call: importing geocp and generating the
inputs; the benchmark's own check modules are not counted), the median
over rounds of wall_s and cpu_s (the rounds' calls into geocp, not the
checks), and peak_rss_mb.  --trace 1 runs at least five rounds,
alternating untraced and traced ones after a warm-up, reports the
per-layer metrics from the traced ones plus trace.overhead_s, and writes
the spans under perfbench/out/.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _cpu_seconds() -> float:
    """User + system CPU time of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("small-graph-oracle", "rgg-extinction", "percolation", "coupled-clocks"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "geocp" / "__init__.py").is_file():
        print(f"perfbench: no geocp sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # one thread per BLAS call: a 2-core host shared with other work gives
    # steadier numbers, and the workloads' matrices are small
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(SRC), str(HERE)]

    import geocp  # noqa: F401
    # the benchmark's own check modules are not part of the set-up time
    t0 = time.perf_counter()
    import checks  # noqa: F401
    checks_import_s = time.perf_counter() - t0
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = spans.Tracer()
    setup_s = time.perf_counter() - START - checks_import_s
    rounds = max(1, math.ceil(args.seconds / workload.ROUND_S))
    if args.trace:
        rounds = max(5, rounds)
    walls = {False: [], True: []}
    cpus = []
    failures = []
    for r in range(rounds):
        # in a traced run, round 0 warms up, then traced and untraced rounds
        # alternate, so the overhead compares warm rounds only
        traced = bool(args.trace) and r % 2 == 1
        tracer.enabled, tracer.round = traced, r
        c0, w0 = _cpu_seconds(), time.perf_counter()
        try:
            out = workload.run_round(r, tracer.call)
        except Exception as exc:  # no call is expected to fail: report it and go on
            failures.append(f"round {r}: {type(exc).__name__}: {exc}")
            out = None
        w1, c1 = time.perf_counter(), _cpu_seconds()
        if out is not None:
            if not (args.trace and r == 0):
                walls[traced].append(w1 - w0)
                cpus.append(c1 - c0)
            failures += [f"round {r}: {msg}" for msg in workload.check(out)]
        del out
    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)

    if args.trace:
        metrics = spans.layer_metrics(tracer.spans)
        if walls[True] and walls[False]:
            metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        else:
            metrics["trace.overhead_s"] = 0.0
        units = {name: unit for name, unit, _, _ in spans.LAYER_METRICS}
        units["trace.overhead_s"] = "s"
        tracer.write(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed, "rounds": rounds})
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": setup_s,
                   "wall_s": statistics.median(walls[False]) if walls[False] else 0.0,
                   "cpu_s": statistics.median(cpus) if cpus else 0.0,
                   "peak_rss_mb": peak_mb}
        units = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": not failures, "attempted": tracer.attempted, "failed": tracer.failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
