"""Suite runner: enumerates checks over seeded ensembles, aggregates slack
statistics, and emits deterministic JSON/CSV reports.

Every suite is one ``SuiteSpec`` row of ``REGISTRY``: the ensemble families
of its chain inputs in a pinned draw order, and the batch kernel they feed.
Each trial derives a private stream from (master_seed, trial_index), draws
the row's inputs, and evaluates the kernel; ``check_single`` loads the same
inputs from JSON files and calls the kernel's one-trial chain.  Reports are
therefore a pure function of the config, except for the runtime fields.

``run_suite`` walks the trials in chunks of ``TRIAL_CHUNK`` along a trial
axis; a chunk draws each input in one call, and the kernel takes it whole.
Every number is the one-trial evaluation's, whatever chunks or jobs.

One suite is special: ``remark36_counterexample`` evaluates a bound on a
fixed non-PSD operator where the bound genuinely fails.  That suite counts
as passing only when the violation is reproduced exactly (slack -1/2), and
its violations are excluded from the process exit code.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import operator_ineq as op_ineq
from . import vector_ineq as vec_ineq
from .chains import ChainBatch, ChainResult, ToleranceConfig, chain_batch, kernel
from .ensembles import EnsembleConfig, draw, trial_stream
from .errors import IneqLabError, InvalidInput
from .linalg import load_matrix, load_vector, read_json
from .prng import Stream
from .radius import ORACLE_CHECK_SAMPLES, numerical_radius, numerical_radius_sampling_oracle

SCHEMA_VERSION = 1
TIGHTEST_KEEP = 5
ORACLE_SUITE_SAMPLES = 512
COUNTEREXAMPLE_SLACK = -0.5
COUNTEREXAMPLE_TOL = 1e-12
# Trials per evaluation call of run_suite; bounds the memory of a batched
# chunk (a (TRIAL_CHUNK, 64, 64) complex stack is 8 MB).
TRIAL_CHUNK = 128

_COUNTEREXAMPLE_A = [[0.0, 1.0], [0.0, 0.0]]
_COUNTEREXAMPLE_X = [0.0, 1.0]
_COUNTEREXAMPLE_Y = [1.0, 0.0]


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class SuiteSpec:
    """One registered suite, read by both the random-trial runner and
    single-check mode.

    ``draws`` names the ensemble family of each chain input in the pinned
    draw order; the first one is the suite's family.  ``order`` maps draw
    positions to argument positions where the two differ.  ``kernel`` is the
    chain's stacked kernel from :func:`~ineqlab.chains.kernel`: it gets the
    inputs positionally, then ``tolerance`` and the fixed ``kwargs``; check
    mode loads a file per letter of its ``kinds`` and runs its ``chain``.
    Suite runs of two rows need more than a draw: ``suite_inputs`` are fixed
    inputs for every trial (the counterexample), and with ``suite_samples``
    one extra raw word per trial is the oracle seed, passed as an array with
    this sample count in place of ``kwargs``.
    """

    name: str
    draws: tuple[str, ...]
    kernel: Callable[..., ChainBatch]
    kwargs: dict = field(default_factory=dict)
    order: tuple[int, ...] | None = None
    expect_violation: bool = False
    default_dim: int = 4
    default_trials: int = 500
    suite_inputs: tuple | None = None
    suite_samples: int | None = None

    @property
    def family(self) -> str:
        return self.draws[0]

    def arranged(self, inputs: Sequence) -> list:
        """Inputs in draw order, rearranged into argument order."""
        return list(inputs) if self.order is None else [inputs[i] for i in self.order]

    def evaluate(self, stream: Stream, dim: int, tol: ToleranceConfig) -> ChainBatch:
        """Draw the inputs of every key of ``stream`` at once and evaluate the
        kernel: a ChainBatch row per key, or the first failing trial's error."""
        if self.suite_inputs is None:
            inputs = self.arranged([draw(family, stream, dim) for family in self.draws])
        else:
            inputs = [np.array([value] * stream.keys.size) for value in self.suite_inputs]
        if self.suite_samples is None:
            return self.kernel(*inputs, tolerance=tol, **self.kwargs)
        return self.kernel(*inputs, tolerance=tol, samples=self.suite_samples, seed=stream.raw(1).reshape(-1))


def _omega_oracle_batch(matrix, samples: int, seed, tolerance: ToleranceConfig | None = None) -> ChainBatch:
    """Cross-check chain: sampled max quadratic form <= omega <= norm, with
    one oracle seed per trial of a stack."""
    oracle = numerical_radius_sampling_oracle(matrix, samples, seed)
    radius = numerical_radius(matrix)
    terms = [("sampling_oracle_max", oracle), ("omega_sweep", radius.omega), ("operator_norm", radius.norm)]
    return chain_batch("omega_oracle", terms, tolerance, radii=(radius,))


def _build_registry() -> dict[str, SuiteSpec]:
    v, xy = "unit_vector", ("unit_vector", "unit_vector")
    psd_xy, pc_xy, ginibre_xy = ("psd", *xy), ("positive_contraction", *xy), ("ginibre", *xy)
    sandwich = ("positive_contraction", "ginibre", "ginibre")
    vector, omega = partial(SuiteSpec, default_trials=1000), partial(SuiteSpec, default_trials=200)

    specs = [
        vector("buzano", (v, v, v), vec_ineq.buzano_batch),
        vector("lemma21", (v, v, v), vec_ineq.lemma21_batch),
        vector("cs_refinement", (v, v, v), vec_ineq.cs_refinement_batch),
        vector("krein_triangle", (v, v, v), vec_ineq.krein_triangle_batch),
        vector("lin_triangle_refined", (v, v, v), vec_ineq.lin_triangle_refined_batch),
        vector("psi_infimum", (v, v), vec_ineq.psi_infimum_batch),
        vector("projection_buzano", ("projection", *xy), vec_ineq.projection_buzano_batch),
        SuiteSpec("lemma_2A", psd_xy, op_ineq.lemma_2A_batch),
        SuiteSpec("theorem_gap", pc_xy, op_ineq.theorem_gap_batch),
        SuiteSpec("corollary33", pc_xy, op_ineq.corollary33_batch),
        SuiteSpec("corollary33_scaled", psd_xy, op_ineq.corollary33_batch, {"scaled": True}),
        SuiteSpec("corollary35", pc_xy, op_ineq.corollary35_batch),
        SuiteSpec("remark36_scaled", psd_xy, op_ineq.remark36_scaled_batch),
        SuiteSpec("remark36_polar", ginibre_xy, op_ineq.remark36_polar_batch),
        omega("corollary37", ("psd", "ginibre"), op_ineq.corollary37_batch, order=(1, 0)),
        omega("corollary38_omega", sandwich, op_ineq.corollary38_omega_batch),
        SuiteSpec("corollary38_norm", sandwich, op_ineq.corollary38_norm_batch),
        omega("power_r1", sandwich, op_ineq.power_batch, {"power": 1.0}),
        omega("power_r2", sandwich, op_ineq.power_batch, {"power": 2.0}),
        omega("power_r3", sandwich, op_ineq.power_batch, {"power": 3.0}),
        SuiteSpec("bourin_r1", ("psd", "psd"), op_ineq.bourin_batch, {"power": 1.0}),
        SuiteSpec("bourin_r2", ("psd", "psd"), op_ineq.bourin_batch, {"power": 2.0}),
        omega("final_omega_refinement", ("ginibre",), op_ineq.final_omega_refinement_batch),
        omega("omega_oracle", ("ginibre",), kernel(_omega_oracle_batch, "m")[0],
              {"samples": ORACLE_CHECK_SAMPLES, "seed": 0}, suite_samples=ORACLE_SUITE_SAMPLES),
        SuiteSpec(
            "remark36_counterexample",
            ginibre_xy,
            op_ineq.remark36_unchecked_batch,
            expect_violation=True,
            default_dim=2,
            default_trials=1,
            suite_inputs=(_COUNTEREXAMPLE_A, _COUNTEREXAMPLE_X, _COUNTEREXAMPLE_Y),
        ),
    ]
    return {spec.name: spec for spec in specs}


REGISTRY: dict[str, SuiteSpec] = _build_registry()


def suite_names() -> list[str]:
    return list(REGISTRY.keys())


def _suite(name, family: str | None = None) -> SuiteSpec:
    """The registered row called ``name``; with ``family``, also check that
    it is the suite's own ensemble family."""
    spec = REGISTRY.get(name) if isinstance(name, str) else None
    if spec is None:
        raise InvalidInput(f"unknown suite {name!r}; registered suites: {', '.join(REGISTRY)}")
    if family is not None and family != spec.family:
        raise InvalidInput(f"suite {name!r} requires family {spec.family!r}, got {family!r}")
    return spec


# ---------------------------------------------------------------------------
# suite execution


@dataclass
class SuiteReport:
    """Aggregate outcome of one suite run."""

    suite_name: str
    family: str
    dim: int
    seed: int
    trials: int
    violations: int
    min_slack: float
    mean_slack: float
    tightest_instances: list[dict] = field(default_factory=list)
    runtime_ms: int = 0

    def to_dict(self) -> dict:
        row = {f.name: getattr(self, f.name) for f in fields(self)}
        row["tightest_instances"] = [dict(instance) for instance in self.tightest_instances]
        return row


def run_suite(
    suite_name: str,
    ensemble: EnsembleConfig,
    tol: ToleranceConfig | None = None,
    jobs: int = 1,
) -> SuiteReport:
    """Evaluate one suite over all trials of the ensemble plan.

    The trials go in chunks of TRIAL_CHUNK; with jobs > 1 the chunks run on
    a thread pool and merge in trial order, so no number depends on jobs.
    """
    spec = _suite(suite_name, ensemble.family)
    if jobs < 1:
        raise InvalidInput(f"jobs must be at least 1, got {jobs}")
    tolerance = tol if tol is not None else ToleranceConfig()
    starts = range(0, ensemble.trials, TRIAL_CHUNK)
    chunks = [range(start, min(start + TRIAL_CHUNK, ensemble.trials)) for start in starts]

    def outcomes(trials: range) -> tuple[np.ndarray, np.ndarray]:
        batch = spec.evaluate(trial_stream(ensemble, np.array(trials)), ensemble.dim, tolerance)
        return batch.slacks.min(axis=1), batch.passed

    start = time.perf_counter()
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor  # loads logging; only a pool run pays for it

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(outcomes, chunks))
    else:
        parts = list(map(outcomes, chunks))
    runtime_ms = int(round((time.perf_counter() - start) * 1000.0))

    slacks = np.concatenate([slack for slack, _ in parts])
    passed = np.concatenate([ok for _, ok in parts])
    tightest = [
        {"seed": ensemble.master_seed, "trial": int(index), "slack": float(slacks[index])}
        for index in np.argsort(slacks, kind="stable")[:TIGHTEST_KEEP]
    ]
    return SuiteReport(
        suite_name=suite_name,
        family=ensemble.family,
        dim=ensemble.dim,
        seed=ensemble.master_seed,
        trials=ensemble.trials,
        violations=int(np.count_nonzero(~passed)),
        min_slack=float(slacks.min()),
        mean_slack=float(slacks.mean()),
        tightest_instances=tightest,
        runtime_ms=runtime_ms,
    )


def suite_outcome_ok(spec: SuiteSpec, report: SuiteReport) -> bool:
    """Pass rule: ordinary suites need zero violations; the counterexample
    suite needs the violation reproduced at slack -1/2 on every trial."""
    if spec.expect_violation:
        return (
            report.violations == report.trials
            and abs(report.min_slack - COUNTEREXAMPLE_SLACK) <= COUNTEREXAMPLE_TOL
        )
    return report.violations == 0


# ---------------------------------------------------------------------------
# config handling


def derive_entry_seed(suite: str, dim: int, base_seed: int = 0) -> int:
    """Stable per-entry seed: base xor the first 8 bytes of sha256(suite/dim)."""
    import hashlib  # loads OpenSSL; only an entry without a seed pays for it

    digest = hashlib.sha256(f"{suite}/{dim}".encode("utf-8")).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "big")) & 0xFFFFFFFFFFFFFFFF


def default_config() -> dict:
    """Config covering every registered suite at its default size; the
    defaults themselves are filled in by ``parse_config``."""
    return {"suites": [{"suite": name} for name in REGISTRY]}


def _reject_unknown(block: dict, allowed: Sequence[str], where: str = "") -> None:
    """A misspelled key would otherwise fall back to its default silently."""
    unknown = set(block) - set(allowed)
    if unknown:
        raise InvalidInput(f"{where}unknown keys {sorted(unknown)}; allowed: {', '.join(allowed)}")


def _parse_tolerance(block) -> ToleranceConfig:
    if block is None:
        return ToleranceConfig()
    if not isinstance(block, dict):
        raise InvalidInput("config: 'tolerance' must be an object")
    _reject_unknown(block, [f.name for f in fields(ToleranceConfig)], "config: tolerance: ")
    return ToleranceConfig(**block)


def _parse_entry(entry) -> tuple[SuiteSpec, EnsembleConfig]:
    """One ``suites`` entry, its missing keys filled from the suite's row."""
    if not isinstance(entry, dict):
        raise InvalidInput("must be an object")
    _reject_unknown(entry, ("suite", "family", "dim", "trials", "seed"))
    spec = _suite(entry.get("suite"), entry.get("family"))
    dim, trials = entry.get("dim", spec.default_dim), entry.get("trials", spec.default_trials)
    seed = entry["seed"] if "seed" in entry else derive_entry_seed(spec.name, dim)
    for key, value in (("dim", dim), ("trials", trials), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidInput(f"{key} must be an integer")
    family = entry.get("family", spec.family)  # an explicit null reaches EnsembleConfig and is rejected
    return spec, EnsembleConfig(family=family, dim=dim, master_seed=seed, trials=trials)


def parse_config(raw) -> tuple[ToleranceConfig, list[tuple[SuiteSpec, EnsembleConfig]], str]:
    """Validate a config dict into runnable (spec, ensemble) pairs."""
    if not isinstance(raw, dict):
        raise InvalidInput("config: top level must be a JSON object")
    _reject_unknown(raw, ("tolerance", "suites", "output"), "config: ")
    tol = _parse_tolerance(raw.get("tolerance"))
    entries = raw.get("suites")
    if not isinstance(entries, list) or not entries:
        raise InvalidInput("config: 'suites' must be a non-empty list")
    plans = []
    for position, entry in enumerate(entries):
        try:
            plans.append(_parse_entry(entry))
        except InvalidInput as exc:
            raise InvalidInput(f"config: suites[{position}]: {exc}") from None
    output = raw.get("output", "report.json")
    if not isinstance(output, str) or not output:
        raise InvalidInput("config: 'output' must be a non-empty path string")
    return tol, plans, output


# ---------------------------------------------------------------------------
# reports


def report_document(reports: Sequence[SuiteReport]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "suites": [report.to_dict() for report in reports],
    }


def write_report(reports: Sequence[SuiteReport], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(report_document(reports), indent=2) + "\n")


_CSV_COLUMNS = tuple(f.name for f in fields(SuiteReport) if f.name != "tightest_instances")


def write_csv(reports: Sequence[SuiteReport], path: str) -> None:
    """Flattened one-row-per-suite export (tightest instances omitted)."""
    lines = [",".join(_CSV_COLUMNS)]
    for report in reports:
        row = [getattr(report, col) for col in _CSV_COLUMNS]
        lines.append(",".join(repr(value) if isinstance(value, float) else str(value) for value in row))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def execute_plans(
    plans: Sequence[tuple[SuiteSpec, EnsembleConfig]],
    tol: ToleranceConfig,
    jobs: int = 1,
    progress: Callable[[str], None] | None = None,
) -> tuple[list[SuiteReport], bool]:
    """Run every (spec, ensemble) pair; returns reports and the overall verdict."""
    reports = []
    all_ok = True
    for spec, ensemble in plans:
        report = run_suite(spec.name, ensemble, tol, jobs=jobs)
        ok = suite_outcome_ok(spec, report)
        all_ok = all_ok and ok
        reports.append(report)
        if progress is not None:
            marker = "ok" if ok else "VIOLATION"
            progress(
                f"{report.suite_name:26s} dim={report.dim:<3d} trials={report.trials:<6d} "
                f"violations={report.violations:<4d} min_slack={report.min_slack:+.3e}  [{marker}]"
            )
    return reports, all_ok


def run_all(
    config_path: str | dict,
    jobs: int = 1,
    output_override: str | None = None,
    csv_path: str | None = None,
    progress: Callable[[str], None] | None = None,
) -> int:
    """Run every suite of a config; returns the process exit code.

    ``config_path`` is a config file or an already built config document.
    Suite lines and the final ``report written to`` line go to
    ``progress``; every ``error:`` line goes to stderr.
    """
    try:
        raw = read_json(config_path) if isinstance(config_path, str) else config_path
        tol, plans, output = parse_config(raw)
        reports, all_ok = execute_plans(plans, tol, jobs=jobs, progress=progress)
        destination = output_override if output_override is not None else output
        write_report(reports, destination)
        if csv_path is not None:
            write_csv(reports, csv_path)
    except IneqLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    if progress is not None:
        progress(f"report written to {destination}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# single-check evaluation


def check_single(check_name: str, input_files: Sequence[str]) -> ChainResult:
    """Evaluate one named check on inputs loaded from JSON files.

    Files are interpreted positionally against the check's signature; the
    caller maps the typed errors to exit codes.
    """
    spec = _suite(check_name)
    kinds = spec.kernel.kinds
    if len(input_files) != len(kinds):
        names = ", ".join("vector" if kind == "v" else "matrix" for kind in kinds)
        raise InvalidInput(f"check {check_name!r} expects {len(kinds)} input file(s) ({names}); got {len(input_files)}")
    loaded = [(load_vector if kind == "v" else load_matrix)(path) for kind, path in zip(kinds, input_files)]
    return spec.kernel.chain(*loaded, tolerance=ToleranceConfig(), **spec.kwargs)
