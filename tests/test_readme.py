"""The README's "Suites" table is written from ``REGISTRY``: one row per
registered suite, rebuilt here and compared byte for byte.  Its one complete
Python example runs as a script and prints what the README says."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import ineqlab
from ineqlab.chains import ToleranceConfig
from ineqlab.ensembles import EnsembleConfig, trial_stream
from ineqlab.harness import REGISTRY
from test_radius import OVERSHOOT_EPS

README = Path(__file__).resolve().parent.parent / "README.md"
HEADER = (
    "| Suite | Inputs (draw order) | Terms, nondecreasing | Kernel docstring | Omega-grade | Dim | Trials |",
    "|---|---|---|---|---|---|---|",
)


def _row(name, spec) -> str:
    """One table row: the terms come from one seeded draw at the default dim
    (the counterexample evaluates its fixed inputs at that dim)."""
    tolerance = ToleranceConfig()
    stream = trial_stream(EnsembleConfig(spec.family, spec.default_dim, 0, 1), np.arange(1))
    batch = spec.evaluate(stream, spec.default_dim, tolerance)
    omega_grade = batch.tolerance_used[0] == tolerance.slack_floor(batch.values[0], omega_grade=True)
    cells = [
        f"`{name}`",
        ", ".join(spec.draws),
        " ≤ ".join(f"`{label}`" for label in batch.labels),
        spec.kernel.__doc__.strip().splitlines()[0].replace("|", "\\|"),
        "yes" if omega_grade else "no",
        str(spec.default_dim),
        str(spec.default_trials),
    ]
    return "| " + " | ".join(cells) + " |"


def _readme_table() -> list[str]:
    """The table lines of the README's "Suites" section."""
    section = README.read_text(encoding="utf-8").split("\n## Suites\n", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("|")]


def test_readme_suites_table_is_the_registry():
    expected = [*HEADER, *(_row(name, spec) for name, spec in REGISTRY.items())]
    assert _readme_table() == expected, "\n".join(expected)


def test_readme_example_runs_without_warnings_and_prints_what_it_states():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    complete = [block for block in blocks if block.startswith("import ")]
    assert len(complete) == 1, complete
    src = os.path.dirname(os.path.dirname(ineqlab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", complete[0]], env=env, capture_output=True, text=True
    )
    assert (run.returncode, run.stderr) == (0, ""), run.stderr
    chain_line, radius_line = run.stdout.splitlines()[:2]
    assert chain_line.split()[0] == "True"
    omega, upper, norm = (float(word) for word in radius_line.split()[:3])
    assert abs(omega - 0.5) <= 0.5 * OVERSHOOT_EPS * np.finfo(float).eps
    assert upper >= omega
    assert norm == 1.0
