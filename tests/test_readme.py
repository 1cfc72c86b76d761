"""The README's "Suites" table is written from ``REGISTRY``: one row per
registered suite, rebuilt here and compared byte for byte."""

from pathlib import Path

import numpy as np

from ineqlab.chains import ToleranceConfig
from ineqlab.ensembles import EnsembleConfig, trial_stream
from ineqlab.harness import REGISTRY

README = Path(__file__).resolve().parent.parent / "README.md"
HEADER = (
    "| Suite | Inputs (draw order) | Terms, nondecreasing | Kernel docstring | Omega-grade | Dim | Trials |",
    "|---|---|---|---|---|---|---|",
)


def _row(name, spec) -> str:
    """One table row: the terms come from one seeded draw at the default dim
    (the counterexample evaluates its fixed inputs)."""
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
