"""ineqlab benchmark: one command per workload, run from a checkout's root.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``vector_sweep``, ``omega_sweep``,
``operator_sweep`` and ``check_replay``.  All inputs come from ``--seed``.

The benchmark measures the checkout it sits in: ``src/`` goes first on the
path and the run stops with exit code 2 unless ``ineqlab`` is imported from
there.  BLAS is pinned to one thread; the only other threads are the
``jobs=2`` pool of a traced sweep iteration.

With ``--trace 0`` it repeats the workload for ``--seconds`` after one
warm-up iteration.  ``wall_s`` is the measured time per iteration and
``trials_per_s`` the trials per measured second, both over the whole run;
``check_ms_p50``/``p99`` are percentiles over every CLI call of the run in
the replay, and over the plan's suite entries, each at its mean latency over
the run, in a sweep; ``setup_s`` is the median over fresh interpreters
started every few seconds through the run.  With ``--trace 1`` it alternates
untraced and traced iterations for ``--seconds`` and reports the per-layer
metrics of ``spans.py`` as medians over the traced ones.  Every iteration's outputs are checked: each
suite outcome must pass ``suite_outcome_ok`` (the counterexample at exactly
-1/2), each check call must exit with its expected code, and the hash of the
reports, runtime fields dropped, must repeat across iterations.

Human-readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The same
numbers, the report hash and the machine block go to
``perfbench/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOADS = ("vector_sweep", "omega_sweep", "operator_sweep", "check_replay")
# Trials per suite entry, sized so that one sweep iteration takes about a second.
TRIALS = {"vector_sweep": 40, "omega_sweep": 4, "operator_sweep": 40}
MIN_SETUP_PROBES = 7
# One set-up probe per this many measured seconds, so that the probes sample
# the host over the whole run rather than in one burst.
SETUP_PROBE_EVERY_S = 2.0
PROBE_TIMEOUT_S = 60
MIN_ITERATIONS = 3
MIN_TRACED_ROUNDS = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "check_ms_p50": "ms",
    "check_ms_p99": "ms",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_call") and not name.endswith("ms_per_call"):
        return "count/call"
    if name.endswith("_ms") or name.endswith("ms_per_call"):
        return "ms"
    if name.endswith((".calls", ".draws")):
        return "count"
    return "ratio"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="ineqlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted(SRC.rglob("*.py"))
    )


def machine_block() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
        "src_lines": _src_lines(),
    }


def setup_probe(workload: str, input_path: str) -> float:
    """Seconds one fresh interpreter takes to import ineqlab and parse the input."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT), workload, input_path],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


class Tally:
    """Outcomes checked so far, and the report hash they must all repeat."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def add(self, iteration) -> None:
        if self.digest is None:
            self.digest = iteration.digest
        self.attempted += iteration.attempted
        if iteration.digest != self.digest or not iteration.digest:
            self.failed += iteration.attempted
        else:
            self.failed += iteration.failed


def run_plain(workload, seconds: float, tally: Tally, probe) -> tuple[dict, dict]:
    tally.add(workload.iterate())  # warm-up: caches, lazy imports, first hash
    iterations, setups = [], []
    start = time.perf_counter()
    deadline = start + seconds
    while (
        len(iterations) < MIN_ITERATIONS
        or len(setups) < MIN_SETUP_PROBES
        or time.perf_counter() < deadline
    ):
        if len(setups) * SETUP_PROBE_EVERY_S <= time.perf_counter() - start:
            setups.append(probe())
        iterations.append(workload.iterate())
        tally.add(iterations[-1])
    walls = [iteration.wall_s for iteration in iterations]
    latencies = workload.check_samples(iterations)
    # Host speed here flips between two levels for seconds at a time, so the
    # median of short iterations jumps between them; the total over the run
    # moves smoothly with the share of time spent at each level.
    total = sum(walls)
    return {
        "wall_s": total / len(walls),
        "trials_per_s": workload.trials * len(walls) / total,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "check_ms_p50": statistics.median(latencies),
        "check_ms_p99": statistics.quantiles(latencies, n=100, method="inclusive")[98],
    }, {"iterations": len(walls), "setup_probes": len(setups), "check_samples": len(latencies)}


def run_traced(workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    from spans import Tracer
    from workloads import SUITE_LAYERS

    def traced(**jobs):
        tracer = Tracer()
        with tracer.installed(SUITE_LAYERS):
            iteration = workload.iterate(tracer=tracer, **jobs)
        tally.add(iteration)
        return iteration.wall_s, tracer.layer_metrics()

    tally.add(workload.iterate())
    plain_walls, traced_walls, layer_rounds, pooled_walls = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced_walls) < MIN_TRACED_ROUNDS or time.perf_counter() < deadline:
        iteration = workload.iterate()
        tally.add(iteration)
        plain_walls.append(iteration.wall_s)
        wall, layers = traced()
        traced_walls.append(wall)
        layer_rounds.append(layers)
        if workload.name != "check_replay":
            pooled_walls.append(traced(jobs=2)[0])
    metrics = {
        key: (statistics.median_low if per_layer_unit(key) == "count" else statistics.median)(
            [layers[key] for layers in layer_rounds]
        )
        for key in layer_rounds[0]
    }
    # check mode has no thread pool, so its jobs=2 path is its serial path.
    metrics["harness.jobs_speedup"] = (
        sum(traced_walls) / sum(pooled_walls) if pooled_walls else 1.0
    )
    metrics["trace.overhead_ratio"] = sum(traced_walls) / sum(plain_walls)
    return metrics, {"traced_rounds": len(traced_walls)}


def main(argv=None) -> int:
    args = _parse_args(argv)
    os.environ.update(THREAD_ENV)
    if not (SRC / "ineqlab" / "__init__.py").is_file():
        print(f"error: no ineqlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ineqlab

    if not Path(ineqlab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: ineqlab imported from {ineqlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    (BENCH_DIR / "work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH_DIR / "work")
    try:
        workload = workloads.build(args.workload, workdir, args.seed, TRIALS)
        tally = Tally()
        if args.trace:
            metrics, extra = run_traced(workload, args.seconds, tally)
            metrics["fail_ratio"] = tally.failed / tally.attempted
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            metrics, extra = run_plain(
                workload, args.seconds, tally,
                lambda: setup_probe(args.workload, workload.config_path),
            )
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "trials_per_iteration": workload.trials,
        "report_sha256": tally.digest,
        **extra,
        "machine": machine_block(),
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    out_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key in ("machine", "trials_per_iteration", "report_sha256", *extra):
        print(f"{key}: {json.dumps(record[key])}")
    for name, entry in record["metrics"].items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    print(f"results written to {out_path.relative_to(ROOT)}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
