"""Suite runner: aggregation, config handling, determinism, check mode."""

import json
from dataclasses import replace

import numpy as np
import pytest

from ineqlab import errors, harness
from ineqlab.chains import ToleranceConfig, make_chain
from ineqlab.ensembles import EnsembleConfig, draw, trial_stream
from ineqlab.harness import (
    REGISTRY,
    SuiteSpec,
    check_single,
    default_config,
    derive_entry_seed,
    execute_plans,
    parse_config,
    report_document,
    run_all,
    run_suite,
    suite_names,
    suite_outcome_ok,
    write_csv,
    write_report,
)
from ineqlab.linalg import matrix_to_json_dict, vector_to_json_dict
from ineqlab.prng import derive_key

S2 = 1.0 / np.sqrt(2.0)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def vector_file(tmp_path, name, values):
    return write_json(tmp_path / name, vector_to_json_dict(np.asarray(values, dtype=complex)))


def matrix_file(tmp_path, name, values):
    return write_json(tmp_path / name, matrix_to_json_dict(np.asarray(values, dtype=complex)))


def stripped(doc):
    clean = json.loads(json.dumps(doc))
    for suite in clean["suites"]:
        suite.pop("runtime_ms", None)
    return clean


@pytest.fixture
def failing_suite():
    spec = SuiteSpec(
        "always_fails",
        ("ginibre",),
        lambda a, tolerance: make_chain(
            "always_fails", [("upper", 1.0), ("lower", 0.0)], tolerance
        ),
        default_dim=2,
        default_trials=3,
    )
    REGISTRY[spec.name] = spec
    yield spec
    del REGISTRY[spec.name]


# ---------------------------------------------------------------------------
# run_suite


def test_run_suite_aggregates():
    ensemble = EnsembleConfig(family="unit_vector", dim=4, master_seed=81, trials=200)
    report = run_suite("buzano", ensemble, ToleranceConfig())
    assert report.suite_name == "buzano"
    assert report.trials == 200
    assert report.violations == 0
    assert report.min_slack <= report.mean_slack
    assert len(report.tightest_instances) == 5
    slacks = [inst["slack"] for inst in report.tightest_instances]
    assert slacks == sorted(slacks)
    assert report.min_slack == slacks[0]
    assert all(inst["seed"] == 81 for inst in report.tightest_instances)


def test_run_suite_rejects_unknown_and_mismatched():
    ensemble = EnsembleConfig(family="unit_vector", dim=4, master_seed=0, trials=5)
    with pytest.raises(errors.InvalidInput):
        run_suite("not_a_suite", ensemble)
    with pytest.raises(errors.InvalidInput):
        run_suite("theorem_gap", ensemble)
    with pytest.raises(errors.InvalidInput):
        run_suite("buzano", ensemble, jobs=0)


def test_counterexample_suite_reproduces_violation():
    spec = REGISTRY["remark36_counterexample"]
    ensemble = EnsembleConfig(family="ginibre", dim=2, master_seed=5, trials=3)
    report = run_suite(spec.name, ensemble)
    assert report.violations == 3
    assert report.min_slack == pytest.approx(-0.5, abs=1e-15)
    assert suite_outcome_ok(spec, report)


def test_ordinary_suite_with_violation_is_not_ok(failing_suite):
    ensemble = EnsembleConfig(family="ginibre", dim=2, master_seed=0, trials=2)
    report = run_suite("always_fails", ensemble)
    assert report.violations == 2
    assert not suite_outcome_ok(failing_suite, report)


def test_parallel_matches_serial():
    ensemble = EnsembleConfig(family="positive_contraction", dim=4, master_seed=17, trials=60)
    serial = run_suite("theorem_gap", ensemble, jobs=1)
    parallel = run_suite("theorem_gap", ensemble, jobs=4)
    a, b = serial.to_dict(), parallel.to_dict()
    a.pop("runtime_ms")
    b.pop("runtime_ms")
    assert a == b


BATCHED_SUITES = [name for name, spec in REGISTRY.items() if spec.batch is not None]


def one_trial_slacks(name, ensemble):
    """Min slack of every trial, each drawn and evaluated on its own."""
    spec = REGISTRY[name]
    return np.array([
        spec.evaluate(trial_stream(ensemble, t), ensemble.dim, ToleranceConfig()).min_slack
        for t in range(ensemble.trials)
    ])


@pytest.mark.parametrize("name", BATCHED_SUITES)
def test_batched_suite_matches_one_trial_evaluation(name, monkeypatch):
    spec = REGISTRY[name]
    full = EnsembleConfig(family=spec.family, dim=3, master_seed=2024, trials=40)
    slacks = one_trial_slacks(name, full)
    for trials in (1, 7, 40):
        report = run_suite(name, replace(full, trials=trials))
        prefix = slacks[:trials]
        assert report.min_slack == prefix.min()
        assert report.mean_slack == prefix.mean()
        assert report.violations == 0
        assert [inst["trial"] for inst in report.tightest_instances] == list(np.argsort(prefix, kind="stable")[:5])
        assert [inst["slack"] for inst in report.tightest_instances] == sorted(prefix)[:5]
    # Neither the chunk size nor the thread count changes a number.
    reference = run_suite(name, full).to_dict()
    reference.pop("runtime_ms")
    for chunk in (1, 7, 40):
        monkeypatch.setattr(harness, "TRIAL_CHUNK", chunk)
        for jobs in (1, 3):
            again = run_suite(name, full, jobs=jobs).to_dict()
            again.pop("runtime_ms")
            assert again == reference


@pytest.mark.parametrize("name", BATCHED_SUITES)
def test_batched_suite_raises_the_first_failing_trials_error(name, monkeypatch):
    # Break two trials, the later one in an earlier input: the error must be
    # the one that evaluating trial after trial meets first.
    spec = REGISTRY[name]
    ensemble = EnsembleConfig(family=spec.family, dim=3, master_seed=77, trials=20)
    broken = {derive_key(77, 5): 1, derive_key(77, 11): 0}  # key -> input position

    def corrupt(value, position):
        if name == "projection_buzano" and position == 0:
            return value + 0.5 * np.eye(value.shape[-1])  # P^2 != P
        if spec.draws[position] in ("psd", "positive_contraction"):
            return value - 2.0 * np.eye(value.shape[-1])  # spectrum below the window
        if name == "remark36_polar" and position == 0:
            return np.zeros_like(value)  # the zero operator
        if name in ("krein_triangle", "lin_triangle_refined", "psi_infimum"):
            return np.zeros_like(value)
        return np.full_like(value, np.nan)

    def breaking_draw(family, stream, dim):
        drawn = draw(family, stream, dim)
        position = getattr(stream, "position", 0)
        stream.position = position + 1
        rows = drawn if stream.batched else drawn[None]
        for row, key in enumerate(np.atleast_1d(stream.keys)):
            if broken.get(int(key)) == position:
                rows[row] = corrupt(rows[row], position)
        return drawn

    monkeypatch.setattr(harness, "draw", breaking_draw)
    with pytest.raises(errors.IneqLabError) as serial:
        for t in range(ensemble.trials):
            spec.evaluate(trial_stream(ensemble, t), ensemble.dim, ToleranceConfig())
    for chunk in (4, 128):
        monkeypatch.setattr(harness, "TRIAL_CHUNK", chunk)
        with pytest.raises(errors.IneqLabError) as batched:
            run_suite(name, ensemble)
        assert type(batched.value) is type(serial.value)
        assert str(batched.value) == str(serial.value)


# ---------------------------------------------------------------------------
# config handling


def test_default_config_covers_registry():
    doc = default_config()
    names = [entry["suite"] for entry in doc["suites"]]
    assert set(names) == set(suite_names())
    assert len(names) >= 18
    tol, plans, output = parse_config(doc)
    assert output == "report.json"
    assert len(plans) == len(names)
    assert tol.eps_rel_omega == 1e-8


def test_derive_entry_seed_is_stable():
    assert derive_entry_seed("buzano", 4) == derive_entry_seed("buzano", 4)
    assert derive_entry_seed("buzano", 4) != derive_entry_seed("buzano", 8)
    assert derive_entry_seed("buzano", 4) != derive_entry_seed("lemma21", 4)
    assert 0 <= derive_entry_seed("buzano", 4, base_seed=123) < 2**64


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc.update(suites=[]),
        lambda doc: doc.update(suites="buzano"),
        lambda doc: doc["suites"].append({"suite": "unknown_suite"}),
        lambda doc: doc["suites"].append({"suite": "buzano", "family": "ginibre"}),
        lambda doc: doc["suites"].append({"suite": "buzano", "trials": 0}),
        lambda doc: doc["suites"].append({"suite": "buzano", "dim": 100}),
        lambda doc: doc["suites"].append({"suite": "buzano", "dim": "four"}),
        lambda doc: doc.update(tolerance={"eps_abs": -1.0}),
        lambda doc: doc.update(tolerance={"bogus": 1.0}),
        lambda doc: doc.update(output=""),
        lambda doc: doc.update(tolerance={"eps_abs": float("inf")}),
        lambda doc: doc.update(tolerance={"eps_rel": float("nan")}),
        lambda doc: doc.update(tolerance={"eps_rel_omega": 1e300}),
        lambda doc: doc.update(tolerance={"eps_rel": 0.5}),
        lambda doc: doc.update(suites=[{"suite": "buzano", "trails": 5000, "dimm": 8}]),
        lambda doc: doc.update(outptu="r.json"),
        lambda doc: doc["suites"][0].update(seed=-1),
        lambda doc: doc["suites"][0].update(seed=2**64),
        lambda doc: doc.update(tolerance={"eps_abs": "1e-12"}),
    ],
)
def test_parse_config_rejects_bad_documents(mutate):
    doc = {
        "suites": [{"suite": "buzano", "dim": 3, "trials": 5, "seed": 1}],
        "output": "r.json",
    }
    mutate(doc)
    with pytest.raises(errors.InvalidInput):
        parse_config(doc)


def test_parse_config_errors_name_the_entry():
    doc = {"suites": [{"suite": "buzano"}, {"suite": "buzano", "dim": 100}]}
    with pytest.raises(errors.InvalidInput, match=r"^config: suites\[1\]: "):
        parse_config(doc)


def test_parse_config_fills_defaults():
    _, plans, _ = parse_config({"suites": [{"suite": "buzano"}]})
    spec, ensemble = plans[0]
    assert spec.name == "buzano"
    assert ensemble.dim == spec.default_dim
    assert ensemble.trials == spec.default_trials
    assert ensemble.master_seed == derive_entry_seed("buzano", spec.default_dim)


# ---------------------------------------------------------------------------
# end-to-end runs and reports


def small_config(tmp_path, out_name="report.json"):
    return {
        "tolerance": {"eps_abs": 1e-12, "eps_rel": 1e-9, "eps_rel_omega": 1e-8},
        "suites": [
            {"suite": "buzano", "dim": 3, "trials": 40, "seed": 11},
            {"suite": "theorem_gap", "dim": 3, "trials": 25, "seed": 12},
            {"suite": "final_omega_refinement", "dim": 2, "trials": 10, "seed": 13},
            {"suite": "remark36_counterexample", "dim": 2, "trials": 1, "seed": 14},
        ],
        "output": str(tmp_path / out_name),
    }


def test_run_all_end_to_end(tmp_path):
    config_path = write_json(tmp_path / "config.json", small_config(tmp_path))
    lines = []
    code = run_all(config_path, progress=lines.append)
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["schema_version"] == 1
    assert [s["suite_name"] for s in doc["suites"]] == [
        "buzano",
        "theorem_gap",
        "final_omega_refinement",
        "remark36_counterexample",
    ]
    assert any("report written" in line for line in lines)
    counterexample = doc["suites"][-1]
    assert counterexample["violations"] == 1
    assert counterexample["min_slack"] == pytest.approx(-0.5, abs=1e-15)


def test_run_all_reports_are_deterministic(tmp_path):
    config_path = write_json(tmp_path / "config.json", small_config(tmp_path, "first.json"))
    assert run_all(config_path) == 0
    first = json.loads((tmp_path / "first.json").read_text())
    config_path = write_json(tmp_path / "config2.json", small_config(tmp_path, "second.json"))
    assert run_all(config_path) == 0
    second = json.loads((tmp_path / "second.json").read_text())
    assert json.dumps(stripped(first), sort_keys=True) == json.dumps(
        stripped(second), sort_keys=True
    )


def test_run_all_bad_configs(tmp_path):
    assert run_all(str(tmp_path / "missing.json")) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run_all(str(bad)) == 2
    zero = write_json(
        tmp_path / "zero.json",
        {"suites": [{"suite": "buzano", "trials": 0}], "output": str(tmp_path / "r.json")},
    )
    assert run_all(zero) == 2


def test_run_all_flags_violations(tmp_path, failing_suite):
    config = {
        "suites": [{"suite": "always_fails", "dim": 2, "trials": 2, "seed": 1}],
        "output": str(tmp_path / "r.json"),
    }
    config_path = write_json(tmp_path / "config.json", config)
    assert run_all(config_path) == 1


def test_execute_plans_default_config_shrunk():
    tol, plans, _ = parse_config(default_config())
    shrunk = [
        (spec, EnsembleConfig(ensemble.family, ensemble.dim, ensemble.master_seed, 3))
        for spec, ensemble in plans
    ]
    reports, all_ok = execute_plans(shrunk, tol)
    assert all_ok
    assert len(reports) >= 18
    doc = report_document(reports)
    assert doc["schema_version"] == 1


def test_write_csv(tmp_path):
    ensemble = EnsembleConfig(family="unit_vector", dim=3, master_seed=4, trials=10)
    report = run_suite("buzano", ensemble)
    csv_path = tmp_path / "out.csv"
    write_csv([report], str(csv_path))
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("suite_name,family,dim,seed,trials")
    assert lines[1].startswith("buzano,unit_vector,3,4,10")
    json_path = tmp_path / "out.json"
    write_report([report], str(json_path))
    assert json.loads(json_path.read_text())["suites"][0]["suite_name"] == "buzano"


# ---------------------------------------------------------------------------
# single-check mode


def test_check_single_buzano(tmp_path):
    files = [
        vector_file(tmp_path, "x.json", [1.0, 0.0]),
        vector_file(tmp_path, "y.json", [0.0, 1.0]),
        vector_file(tmp_path, "z.json", [S2, S2]),
    ]
    result = check_single("buzano", files)
    assert result.passed
    assert result.values == pytest.approx([0.5, 0.5, 1.0])


def test_check_single_final_omega(tmp_path):
    path = matrix_file(tmp_path, "t.json", [[0.0, 1.0], [0.0, 0.0]])
    result = check_single("final_omega_refinement", [path])
    assert result.values == pytest.approx([0.5, 0.75, 1.0, 1.0, 1.0], abs=1e-9)


def test_check_single_omega_oracle(tmp_path):
    path = matrix_file(tmp_path, "t.json", [[0.0, 2.0], [0.0, 0.0]])
    result = check_single("omega_oracle", [path])
    assert result.passed
    assert result.values[1] == pytest.approx(1.0, abs=1e-9)


def test_check_single_error_paths(tmp_path):
    x = vector_file(tmp_path, "x.json", [1.0, 0.0])
    y = vector_file(tmp_path, "y.json", [0.0, 1.0])
    z3 = vector_file(tmp_path, "z3.json", [1.0, 0.0, 0.0])
    with pytest.raises(errors.InvalidInput):
        check_single("nope", [x])
    with pytest.raises(errors.InvalidInput):
        check_single("buzano", [x, y])
    with pytest.raises(errors.DimensionMismatch):
        check_single("buzano", [x, y, z3])
    bad_matrix = matrix_file(tmp_path, "bad.json", [[0.0, 2.0], [0.0, 0.0]])
    with pytest.raises(errors.PreconditionError):
        check_single("corollary35", [bad_matrix, x, y])


def test_check_single_counterexample(tmp_path):
    files = [
        matrix_file(tmp_path, "a.json", [[0.0, 1.0], [0.0, 0.0]]),
        vector_file(tmp_path, "x.json", [0.0, 1.0]),
        vector_file(tmp_path, "y.json", [1.0, 0.0]),
    ]
    result = check_single("remark36_counterexample", files)
    assert not result.passed
    assert result.slacks[0] == pytest.approx(-0.5, abs=1e-15)


def write_inputs(tmp_path, prefix, inputs):
    paths = []
    for position, value in enumerate(inputs):
        value = np.asarray(value, dtype=complex)
        wire = matrix_to_json_dict(value) if value.ndim == 2 else vector_to_json_dict(value)
        paths.append(write_json(tmp_path / f"{prefix}_{position}.json", wire))
    return paths


@pytest.mark.parametrize("name", suite_names())
def test_check_single_replays_suite_trials(tmp_path, name):
    """Check mode on a trial's own inputs gives that trial's chain bit for bit."""
    spec = REGISTRY[name]
    tol = ToleranceConfig()
    for dim in (2, 4):
        ensemble = EnsembleConfig(spec.family, dim, derive_entry_seed(name, dim), 3)
        for trial in range(ensemble.trials):
            suite = spec.evaluate(trial_stream(ensemble, trial), dim, tol)
            if spec.suite_inputs is not None:
                inputs = spec.suite_inputs
            else:
                stream = trial_stream(ensemble, trial)
                drawn = [draw(family, stream, dim) for family in spec.draws]
                inputs = [drawn[i] for i in spec.order or range(len(drawn))]
            check = check_single(name, write_inputs(tmp_path, f"d{dim}_t{trial}", inputs))
            if name == "omega_oracle":
                # Check mode samples the oracle with its own seed and count.
                assert suite.terms[1:] == check.terms[1:]
                continue
            assert (suite.terms, suite.slacks, suite.passed) == (check.terms, check.slacks, check.passed)


@pytest.mark.parametrize("name", [name for name in suite_names() if len(REGISTRY[name].draws) >= 2])
def test_check_single_rejects_mixed_dimensions(tmp_path, name):
    """Each input in turn swapped for its dim-2 draw: check mode raises DimensionMismatch."""
    spec = REGISTRY[name]
    drawn = {}
    for dim in (2, 3):
        stream = trial_stream(EnsembleConfig(spec.family, dim, derive_entry_seed(name, dim), 1), 0)
        drawn[dim] = spec.arranged([draw(family, stream, dim) for family in spec.draws])
    for position in range(len(spec.draws)):
        inputs = list(drawn[3])
        inputs[position] = drawn[2][position]
        with pytest.raises(errors.DimensionMismatch):
            check_single(name, write_inputs(tmp_path, f"p{position}", inputs))
