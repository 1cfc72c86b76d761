"""The benchmark's workloads: three criterion-2 suite groups and a check replay.

The three sweeps together cover the 23 suites of acceptance criterion 2,
plus ``omega_oracle`` and ``remark36_counterexample``, at criterion 2's dims
{2, 3, 4, 8, 16} with fewer trials, so their sum is a scaled criterion 2.
Each suite entry's seed is ``derive_entry_seed(suite, dim, base_seed=seed)``.

* ``vector_sweep`` (``ineqlab run --config ... --csv ...``): cost is flat in
  dim, so the per-trial Python path (prng, ensembles, vector chains,
  make_chain, the harness loop) dominates and ``radius`` does no work.
* ``omega_sweep`` (``harness.run_all``): dominated by the numerical radius
  sweep at dim 16; the group where big LAPACK calls could let a pool help.
* ``operator_sweep`` (``harness.execute_plans``): matrix draws and per-trial
  linalg precondition work, without any numerical radius.
* ``check_replay`` (in-process ``ineqlab check``, one caller in a closed
  loop): every check at dims {2, 4, 16} on JSON inputs written at set-up
  from seeded draws; the only workload that loads inputs from files.  Each
  check runs on trials 0..REPLAY_TRIALS-1 of its suite entry, because the
  d16 omega checks that set ``check_ms_p99`` cost up to 20% (oracle) and 66%
  (final refinement) more on one draw than on another.

Sweeps run with jobs 1.  With the jobs=2 thread pool the omega sweep was
15-60% slower on a 2-vCPU host and its run-to-run spread too wide to gate
on; the traced run still times a jobs=2 iteration of every sweep.

One *iteration* runs a workload's whole plan once.  It returns its wall time,
the latency of each check (a suite entry in the sweeps, a CLI call in the
replay), a hash of its outputs, and how many outcomes were attempted and
came out other than expected.  ``check_samples`` turns a run's iterations
into the samples behind ``check_ms_p50``/``p99``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from ineqlab import cli, harness
from ineqlab.ensembles import EnsembleConfig, draw, trial_stream
from ineqlab.linalg import matrix_to_json_dict, vector_to_json_dict

VECTOR_SUITES = (
    "buzano", "lemma21", "cs_refinement", "krein_triangle",
    "lin_triangle_refined", "psi_infimum", "projection_buzano",
)
OMEGA_SUITES = (
    "corollary37", "corollary38_omega", "power_r1", "power_r2", "power_r3",
    "final_omega_refinement", "omega_oracle",
)
OPERATOR_SUITES = (
    "lemma_2A", "theorem_gap", "corollary33", "corollary33_scaled", "corollary35",
    "remark36_scaled", "remark36_polar", "corollary38_norm", "bourin_r1", "bourin_r2",
    "remark36_counterexample",
)
SWEEP_DIMS = (2, 3, 4, 8, 16)
CHECK_DIMS = (2, 4, 16)
REPLAY_TRIALS = 8
COUNTEREXAMPLE = "remark36_counterexample"
COUNTEREXAMPLE_SLACK = -0.5

# Layer that each suite's evaluator span is booked under in a traced run.
SUITE_LAYERS = {
    **{name: "vector_ineq" for name in VECTOR_SUITES},
    **{name: "operator_ineq" for name in OMEGA_SUITES + OPERATOR_SUITES},
    "omega_oracle": "harness",
}

# Draw order of each check's inputs, as its suite draws them.  corollary37
# draws B before A but takes (A, B).
_DRAWS = {
    **{name: ("unit_vector",) * 3 for name in VECTOR_SUITES[:5]},
    "psi_infimum": ("unit_vector",) * 2,
    "projection_buzano": ("projection", "unit_vector", "unit_vector"),
    "lemma_2A": ("psd", "unit_vector", "unit_vector"),
    "theorem_gap": ("positive_contraction", "unit_vector", "unit_vector"),
    "corollary33": ("positive_contraction", "unit_vector", "unit_vector"),
    "corollary33_scaled": ("psd", "unit_vector", "unit_vector"),
    "corollary35": ("positive_contraction", "unit_vector", "unit_vector"),
    "remark36_scaled": ("psd", "unit_vector", "unit_vector"),
    "remark36_polar": ("ginibre", "unit_vector", "unit_vector"),
    "corollary37": ("psd", "ginibre"),
    "corollary38_omega": ("positive_contraction", "ginibre", "ginibre"),
    "corollary38_norm": ("positive_contraction", "ginibre", "ginibre"),
    "power_r1": ("positive_contraction", "ginibre", "ginibre"),
    "power_r2": ("positive_contraction", "ginibre", "ginibre"),
    "power_r3": ("positive_contraction", "ginibre", "ginibre"),
    "bourin_r1": ("psd", "psd"),
    "bourin_r2": ("psd", "psd"),
    "final_omega_refinement": ("ginibre",),
    "omega_oracle": ("ginibre",),
}
_ARGUMENT_ORDER = {"corollary37": (1, 0)}


@dataclass
class Iteration:
    wall_s: float
    check_ms: list[float]
    digest: str
    attempted: int
    failed: int


@dataclass
class LineClock:
    """Progress sink that timestamps each finished suite line."""

    start: float = field(default_factory=time.perf_counter)
    stamps: list[float] = field(default_factory=list)
    _buffer: str = ""

    def line(self, message: str) -> None:
        if "min_slack=" in message:
            self.stamps.append(time.perf_counter())

    def write(self, text: str) -> int:
        self._buffer += text
        *lines, self._buffer = self._buffer.split("\n")
        for message in lines:
            self.line(message)
        return len(text)

    def flush(self) -> None:
        pass

    def latencies_ms(self) -> list[float]:
        edges = [self.start] + self.stamps
        return [(b - a) * 1e3 for a, b in zip(edges, edges[1:])]


def _sweep_entries(suites, trials: int, seed: int) -> list[dict]:
    entries = []
    for name in suites:
        spec = harness.REGISTRY[name]
        for dim in SWEEP_DIMS:
            entries.append({
                "suite": name,
                "family": spec.family,
                "dim": dim,
                "trials": trials,
                "seed": harness.derive_entry_seed(name, dim, base_seed=seed),
            })
    return entries


def _report_digest(report_path: str, csv_path: str) -> tuple[str, list[harness.SuiteReport]]:
    """Hash of the JSON report and CSV with every runtime field dropped."""
    with open(report_path, encoding="utf-8") as handle:
        document = json.load(handle)
    reports = []
    for suite in document["suites"]:
        suite.pop("runtime_ms")
        reports.append(harness.SuiteReport(**suite))
    with open(csv_path, encoding="utf-8") as handle:
        rows = [line.split(",") for line in handle.read().splitlines()]
    drop = rows[0].index("runtime_ms")
    csv_text = "\n".join(",".join(v for i, v in enumerate(row) if i != drop) for row in rows)
    digest = hashlib.sha256()
    digest.update(json.dumps(document, sort_keys=True).encode("utf-8"))
    digest.update(csv_text.encode("utf-8"))
    return digest.hexdigest(), reports


def _failed_suites(reports: list[harness.SuiteReport]) -> int:
    failed = 0
    for report in reports:
        spec = harness.REGISTRY[report.suite_name]
        ok = harness.suite_outcome_ok(spec, report)
        if spec.name == COUNTEREXAMPLE:
            ok = ok and report.min_slack == COUNTEREXAMPLE_SLACK
        failed += not ok
    return failed


class Sweep:
    """One criterion-2 suite group, run through one public entry point."""

    def __init__(self, name: str, suites, trials: int, workdir: str, seed: int):
        self.name = name
        self.entries = _sweep_entries(suites, trials, seed)
        self.trials = trials * len(self.entries)
        self.report_path = os.path.join(workdir, "report.json")
        self.csv_path = os.path.join(workdir, "report.csv")
        self.config_path = os.path.join(workdir, "config.json")
        config = {"suites": self.entries, "output": self.report_path}
        with open(self.config_path, "w", encoding="utf-8") as handle:
            json.dump(config, handle, indent=2)

    def _call(self, jobs: int, clock: LineClock, tracer) -> int:
        if self.name == "vector_sweep":
            argv = ["run", "--config", self.config_path, "--csv", self.csv_path, "--jobs", str(jobs)]
            with contextlib.redirect_stdout(clock):
                return _cli(tracer, argv)
        if self.name == "omega_sweep":
            return harness.run_all(
                self.config_path, jobs=jobs, csv_path=self.csv_path, progress=clock.line
            )
        with open(self.config_path, encoding="utf-8") as handle:
            tol, plans, output = harness.parse_config(json.load(handle))
        reports, all_ok = harness.execute_plans(plans, tol, jobs=jobs, progress=clock.line)
        harness.write_report(reports, output)
        harness.write_csv(reports, self.csv_path)
        return 0 if all_ok else 1

    @staticmethod
    def check_samples(iterations: list[Iteration]) -> list[float]:
        """One sample per suite entry: its mean latency over the run.

        Entries last milliseconds while the host's slow spells last seconds,
        so pooled entry latencies swing with the spells; per-entry means
        move as smoothly as the total wall time.
        """
        return [statistics.fmean(entry) for entry in zip(*(it.check_ms for it in iterations))]

    def iterate(self, jobs: int = 1, tracer=None) -> Iteration:
        for path in (self.report_path, self.csv_path):
            if os.path.exists(path):
                os.remove(path)
        clock = LineClock()
        code = self._call(jobs, clock, tracer)
        wall = time.perf_counter() - clock.start
        attempted = len(self.entries)
        if code != 0 or len(clock.stamps) != attempted:
            return Iteration(wall, clock.latencies_ms(), "", attempted, attempted)
        digest, reports = _report_digest(self.report_path, self.csv_path)
        return Iteration(wall, clock.latencies_ms(), digest, attempted, _failed_suites(reports))


def _cli(tracer, argv) -> int:
    """One in-process ``ineqlab`` invocation; argparse exits become codes."""
    try:
        if tracer is None:
            return cli.main(argv)
        return tracer.call(cli.main, "cli.main", "cli", (argv,), {})
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


class CheckReplay:
    """Every check at CHECK_DIMS on REPLAY_TRIALS seeded input sets loaded
    from JSON files; one iteration replays every call once."""

    name = "check_replay"

    def __init__(self, workdir: str, seed: int):
        self.calls = []
        for trial in range(REPLAY_TRIALS):
            for check in VECTOR_SUITES + OMEGA_SUITES + OPERATOR_SUITES:
                for dim in CHECK_DIMS:
                    paths = []
                    for position, value in enumerate(_check_inputs(check, dim, seed, trial)):
                        path = os.path.join(workdir, f"{check}_d{dim}_t{trial}_{position}.json")
                        wire = matrix_to_json_dict(value) if value.ndim == 2 else vector_to_json_dict(value)
                        with open(path, "w", encoding="utf-8") as handle:
                            json.dump(wire, handle)
                        paths.append(path)
                    expected = 1 if check == COUNTEREXAMPLE else 0
                    self.calls.append((["check", check, "--in", *paths], expected))
        self.trials = len(self.calls)
        self.config_path = os.path.join(workdir, "calls.json")
        with open(self.config_path, "w", encoding="utf-8") as handle:
            json.dump(self.calls, handle)
        self._first_outputs: list[str] | None = None

    @staticmethod
    def check_samples(iterations: list[Iteration]) -> list[float]:
        """Every call's latency."""
        return [ms for it in iterations for ms in it.check_ms]

    def iterate(self, tracer=None) -> Iteration:
        latencies, outputs = [], []
        failed = 0
        start = time.perf_counter()
        for index, (argv, expected) in enumerate(self.calls):
            sink = io.StringIO()
            begin = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                code = _cli(tracer, argv)
            latencies.append((time.perf_counter() - begin) * 1e3)
            text = sink.getvalue()
            outputs.append(text)
            repeated = self._first_outputs is None or text == self._first_outputs[index]
            failed += code != expected or not repeated or not _check_output_ok(argv[1], text)
        wall = time.perf_counter() - start
        if self._first_outputs is None:
            self._first_outputs = outputs
        digest = hashlib.sha256("\0".join(outputs).encode("utf-8")).hexdigest()
        return Iteration(wall, latencies, digest, len(self.calls), failed)


def _check_output_ok(check: str, text: str) -> bool:
    try:
        result = json.loads(text)
    except json.JSONDecodeError:
        return False
    if check == COUNTEREXAMPLE:
        return min(result["slacks"]) == COUNTEREXAMPLE_SLACK and not result["passed"]
    return bool(result["passed"])


def _check_inputs(check: str, dim: int, seed: int, trial: int) -> list:
    """Inputs of one check: trial ``trial`` of its suite's entry, or for the
    counterexample the fixed operator embedded in ``dim`` dimensions."""
    if check == COUNTEREXAMPLE:
        a = np.zeros((dim, dim))
        a[0, 1] = 1.0
        x, y = np.zeros(dim), np.zeros(dim)
        x[1] = y[0] = 1.0
        return [a, x, y]
    spec = harness.REGISTRY[check]
    ensemble = EnsembleConfig(
        spec.family, dim, harness.derive_entry_seed(check, dim, base_seed=seed), REPLAY_TRIALS
    )
    stream = trial_stream(ensemble, trial)
    drawn = [draw(family, stream, dim) for family in _DRAWS[check]]
    return [drawn[i] for i in _ARGUMENT_ORDER.get(check, range(len(drawn)))]


def build(name: str, workdir: str, seed: int, trials: dict[str, int]):
    """Workload object for ``name`` with its inputs written under ``workdir``."""
    if name == "check_replay":
        return CheckReplay(workdir, seed)
    suites = {
        "vector_sweep": VECTOR_SUITES,
        "omega_sweep": OMEGA_SUITES,
        "operator_sweep": OPERATOR_SUITES,
    }[name]
    return Sweep(name, suites, trials[name], workdir, seed)
