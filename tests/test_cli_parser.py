"""The CLI parser is built once per process: a reused parser must answer every
call as a freshly built one does, including suites registered after it."""

import contextlib
import io
import json

import numpy as np

from ineqlab.chains import chain_batch
from ineqlab.cli import _build_parser, main
from ineqlab.harness import REGISTRY, SuiteSpec
from ineqlab.linalg import vector_to_json_dict

S2 = 1.0 / np.sqrt(2.0)


def _vector_file(tmp_path, name, values):
    path = tmp_path / name
    path.write_text(json.dumps(vector_to_json_dict(np.asarray(values, dtype=complex))))
    return str(path)


def _call(argv) -> tuple[int, str]:
    """Exit code and stdout of one in-process call; argparse exits become codes."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def test_reused_parser_answers_as_a_fresh_one(tmp_path, monkeypatch):
    files = [
        _vector_file(tmp_path, "x.json", [1.0, 0.0]),
        _vector_file(tmp_path, "y.json", [0.0, 1.0]),
        _vector_file(tmp_path, "z.json", [S2, S2]),
    ]
    check = ["check", "buzano", "--in", *files]
    late = ["run", "--suite", "always_fails", "--out", str(tmp_path / "late.json")]
    unknown = ["run", "--suite", "no_such_suite"]
    spec = SuiteSpec(
        "always_fails",
        ("ginibre",),
        lambda a, tolerance: chain_batch(
            "always_fails", [("upper", np.ones(len(a))), ("lower", np.zeros(len(a)))], tolerance
        ),
        default_dim=2,
        default_trials=3,
    )

    _build_parser.cache_clear()
    reused = [_call(check)]
    monkeypatch.setitem(REGISTRY, spec.name, spec)
    reused += [_call(argv) for argv in (late, unknown, check)]
    assert _build_parser.cache_info().misses == 1
    assert [code for code, _ in reused] == [0, 1, 2, 0]

    for argv, answer in zip((check, late, unknown, check), reused):
        _build_parser.cache_clear()
        assert _call(argv) == answer
