"""Command line behavior: argument handling, exit codes, emitted files."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ineqlab
from ineqlab.chains import chain_batch
from ineqlab.cli import main
from ineqlab.harness import REGISTRY, SuiteSpec
from ineqlab.linalg import matrix_to_json_dict, vector_to_json_dict

S2 = 1.0 / np.sqrt(2.0)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def vector_file(tmp_path, name, values):
    return write_json(tmp_path / name, vector_to_json_dict(np.asarray(values, dtype=complex)))


def matrix_file(tmp_path, name, values):
    return write_json(tmp_path / name, matrix_to_json_dict(np.asarray(values, dtype=complex)))


@pytest.fixture
def failing_suite():
    spec = SuiteSpec(
        "always_fails",
        ("ginibre",),
        lambda a, tolerance: chain_batch(
            "always_fails", [("upper", np.ones(len(a))), ("lower", np.zeros(len(a)))], tolerance
        ),
        default_dim=2,
        default_trials=3,
    )
    REGISTRY[spec.name] = spec
    yield spec
    del REGISTRY[spec.name]


def test_run_single_suite(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["run", "--suite", "buzano", "--dim", "3", "--trials", "40", "--out", str(out)]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "buzano" in captured
    assert "report written" in captured
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["suites"][0]["suite_name"] == "buzano"
    assert doc["suites"][0]["trials"] == 40
    assert doc["suites"][0]["violations"] == 0


def test_run_single_suite_with_csv_and_jobs(tmp_path):
    out = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code = main(
        [
            "run", "--suite", "theorem_gap", "--dim", "3", "--trials", "30",
            "--seed", "7", "--jobs", "2", "--out", str(out), "--csv", str(csv_path),
        ]
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("theorem_gap,positive_contraction,3,7,30")


def test_run_config_file(tmp_path, capsys):
    out = tmp_path / "r.json"
    config = {
        "suites": [
            {"suite": "buzano", "dim": 3, "trials": 25, "seed": 2},
            {"suite": "remark36_counterexample", "dim": 2, "trials": 1, "seed": 3},
        ],
        "output": str(out),
    }
    config_path = write_json(tmp_path / "config.json", config)
    assert main(["run", "--config", config_path]) == 0
    assert "VIOLATION" not in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert len(doc["suites"]) == 2
    assert doc["suites"][1]["violations"] == 1


def test_run_rejects_flag_mix_and_bad_jobs(tmp_path):
    config_path = write_json(tmp_path / "c.json", {"suites": [{"suite": "buzano"}]})
    assert main(["run", "--config", config_path, "--suite", "buzano"]) == 2
    assert main(["run", "--suite", "buzano", "--jobs", "0"]) == 2


def test_run_rejects_suite_flags_without_suite(tmp_path, capsys):
    # Without --suite the default plan runs, so these flags would be ignored.
    out = tmp_path / "r.json"
    for flags in (["--seed", "5", "--dim", "3"], ["--dim", "3"], ["--trials", "4"], ["--seed", "5"]):
        assert main(["run", *flags, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
    assert not out.exists()


def test_run_config_error_paths(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    zero = write_json(
        tmp_path / "zero.json",
        {"suites": [{"suite": "buzano", "trials": 0}], "output": str(tmp_path / "r.json")},
    )
    for argv in (
        ["run", "--config", str(tmp_path / "missing.json")],
        ["run", "--config", str(bad)],
        ["run", "--config", zero],
        ["run", "--suite", "buzano", "--dim", "100"],
        ["run", "--suite", "buzano", "--out", str(tmp_path / "no_such_dir" / "r.json")],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error:" not in captured.out
        assert captured.err.startswith("error: ")


def test_run_flags_violation_exit(tmp_path, failing_suite):
    config = {
        "suites": [{"suite": "always_fails", "dim": 2, "trials": 2, "seed": 1}],
        "output": str(tmp_path / "r.json"),
    }
    config_path = write_json(tmp_path / "config.json", config)
    assert main(["run", "--config", config_path]) == 1
    out = tmp_path / "direct.json"
    assert main(["run", "--suite", "always_fails", "--out", str(out)]) == 1


def test_run_unknown_suite_exits_via_argparse():
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--suite", "no_such_suite"])
    assert excinfo.value.code == 2


def test_check_passing(tmp_path, capsys):
    files = [
        vector_file(tmp_path, "x.json", [1.0, 0.0]),
        vector_file(tmp_path, "y.json", [0.0, 1.0]),
        vector_file(tmp_path, "z.json", [S2, S2]),
    ]
    code = main(["check", "buzano", "--in", *files])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["check_name"] == "buzano"
    assert doc["passed"] is True
    assert [term["label"] for term in doc["terms"]][0] == "inner_product_pair"


def test_check_reads_vector_files_with_flat_lists(tmp_path, capsys):
    # The README's vector format: "cols": 1 with flat or nested lists.
    values = {"x": [1.0, 0.0], "y": [0.0, 1.0], "z": [S2, S2]}
    nested = [vector_file(tmp_path, f"{name}.json", v) for name, v in values.items()]
    flat = [write_json(tmp_path / f"{name}_flat.json", {"rows": 2, "cols": 1, "re": v}) for name, v in values.items()]
    outputs = []
    for files in (nested, flat):
        assert main(["check", "buzano", "--in", *files]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_check_failing_chain_exits_one(tmp_path, capsys):
    files = [
        matrix_file(tmp_path, "a.json", [[0.0, 1.0], [0.0, 0.0]]),
        vector_file(tmp_path, "x.json", [0.0, 1.0]),
        vector_file(tmp_path, "y.json", [1.0, 0.0]),
    ]
    code = main(["check", "remark36_counterexample", "--in", *files])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert doc["slacks"][0] == pytest.approx(-0.5, abs=1e-15)


def test_check_precondition_exit(tmp_path, capsys):
    files = [
        matrix_file(tmp_path, "a.json", [[0.0, 2.0], [0.0, 0.0]]),
        vector_file(tmp_path, "x.json", [1.0, 0.0]),
        vector_file(tmp_path, "y.json", [0.0, 1.0]),
    ]
    assert main(["check", "corollary35", "--in", *files]) == 3
    assert "precondition rejected" in capsys.readouterr().err


def test_check_dimension_mismatch_exit(tmp_path):
    files = [
        vector_file(tmp_path, "x.json", [1.0, 0.0]),
        vector_file(tmp_path, "y.json", [0.0, 1.0]),
        vector_file(tmp_path, "z.json", [1.0, 0.0, 0.0]),
    ]
    assert main(["check", "buzano", "--in", *files]) == 3
    eye2 = matrix_file(tmp_path, "eye2.json", np.eye(2))
    eye3 = matrix_file(tmp_path, "eye3.json", np.eye(3))
    for name, inputs in (
        ("corollary37", [eye3, eye2]),
        ("bourin_r1", [eye3, eye2]),
        ("corollary38_norm", [eye3, eye3, eye2]),
    ):
        assert main(["check", name, "--in", *inputs]) == 3


def test_check_of_finite_inputs_whose_products_overflow_exits_two(tmp_path, capsys):
    a = matrix_file(tmp_path, "a.json", np.eye(2))
    big = matrix_file(tmp_path, "big.json", 1e200 * np.eye(2))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["check", "corollary38_norm", "--in", a, big, big]) == 2
    assert "contains NaN or infinite entries" in capsys.readouterr().err


def test_check_theorem_gap_never_fails_an_input_its_window_accepts(tmp_path, capsys):
    # A = diag(1 + 5e-11, 0) lies inside the [0, 1] window's 1e-10 slack, yet
    # the check exited 1 with gap_defect = -5e-11 against a 1e-12 floor.
    a = matrix_file(tmp_path, "a.json", np.diag([1.0 + 5e-11, 0.0]))
    x = vector_file(tmp_path, "x.json", [1.0, 0.0])
    assert main(["check", "theorem_gap", "--in", a, x, x]) == 0
    assert min(json.loads(capsys.readouterr().out)["slacks"]) >= 0.0
    outside = matrix_file(tmp_path, "outside.json", np.diag([1.0 + 2e-10, 0.0]))
    assert main(["check", "theorem_gap", "--in", outside, x, x]) == 3


def test_importing_the_cli_loads_no_thread_pool_and_no_hash():
    # concurrent.futures brings logging and hashlib brings OpenSSL; a pool
    # run and a seed derivation load them when they need them.
    probe = "import sys, ineqlab.cli; print(sorted({'concurrent.futures', 'hashlib', 'logging'} & set(sys.modules)))"
    src = os.path.dirname(os.path.dirname(ineqlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_check_usage_errors(tmp_path):
    x = vector_file(tmp_path, "x.json", [1.0, 0.0])
    assert main(["check", "buzano", "--in", x]) == 2
    assert main(["check", "not_a_check", "--in", x]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    assert main(["check", "final_omega_refinement", "--in", str(broken)]) == 2


def test_omega_command(tmp_path, capsys):
    path = matrix_file(tmp_path, "shift.json", [[0.0, 1.0], [0.0, 0.0]])
    code = main(["omega", "--in", path])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["omega"] == pytest.approx(0.5, abs=1e-10)
    assert doc["omega"] <= doc["upper"] <= doc["omega"] * (1.0 + 1e-10)
    assert doc["operator_norm"] == pytest.approx(1.0, abs=1e-12)
    assert doc["witness"]["rows"] == 2
    assert doc["witness"]["cols"] == 1


def test_omega_error_paths(tmp_path):
    assert main(["omega", "--in", str(tmp_path / "missing.json")]) == 2
    wide = matrix_file(tmp_path, "wide.json", [[0.0, 1.0, 2.0], [0.0, 0.0, 1.0]])
    assert main(["omega", "--in", wide]) == 2
