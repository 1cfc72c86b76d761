"""Command line front end.

Exit codes: 0 all checks passed, 1 a mathematical violation was found,
2 config/IO/parse error, 3 precondition rejection in single-check mode.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DimensionMismatch, IneqLabError, PreconditionError
from .harness import check_single, default_config, run_all, suite_names
from .linalg import load_matrix, vector_to_json_dict
from .radius import numerical_radius


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ineqlab",
        description="Verify inner-product, operator-norm and numerical-radius inequality chains "
        "over seeded random ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run",
        help="run suites from a config file, one named suite, or the built-in default set",
    )
    run_p.add_argument("--config", help="JSON config path (mutually exclusive with --suite)")
    run_p.add_argument("--suite", choices=suite_names(), help="run a single registered suite")
    run_p.add_argument("--dim", type=int, help="matrix/vector dimension")
    run_p.add_argument("--trials", type=int, help="number of seeded trials")
    run_p.add_argument("--seed", type=int, help="master seed in [0, 2^64)")
    run_p.add_argument("--out", help="report path (default report.json, or the config's output)")
    run_p.add_argument("--csv", help="also write a flattened CSV to this path")
    run_p.add_argument("--jobs", type=int, default=1, help="worker threads over chunks of 128 trials (default 1)")

    check_p = sub.add_parser("check", help="evaluate one check on explicit JSON inputs")
    check_p.add_argument("name", help="check name (see 'ineqlab run --help' suite list)")
    check_p.add_argument(
        "--in", dest="inputs", nargs="+", required=True, metavar="FILE",
        help="input files, positional per the check signature",
    )

    omega_p = sub.add_parser("omega", help="numerical radius of one matrix")
    omega_p.add_argument("--in", dest="input", required=True, metavar="FILE")
    return parser


def _cmd_run(args) -> int:
    suite_flags = [args.suite, args.dim, args.trials, args.seed]
    if args.config is not None and any(flag is not None for flag in suite_flags):
        print("error: use either --config or the --suite flag group, not both", file=sys.stderr)
        return 2
    if args.suite is None and any(flag is not None for flag in suite_flags[1:]):
        print("error: --dim, --trials and --seed apply only with --suite", file=sys.stderr)
        return 2
    return run_all(
        args.config if args.config is not None else _flag_config(args),
        jobs=args.jobs,
        output_override=args.out,
        csv_path=args.csv,
        progress=print,
    )


def _flag_config(args) -> dict:
    """Config document for ``--suite`` and its flags, or the default plan."""
    if args.suite is None:
        return default_config()
    entry = {"suite": args.suite}
    for key in ("dim", "trials", "seed"):
        if getattr(args, key) is not None:
            entry[key] = getattr(args, key)
    return {"suites": [entry]}


def _cmd_check(args) -> int:
    try:
        result = check_single(args.name, args.inputs)
    except (PreconditionError, DimensionMismatch) as exc:
        print(f"precondition rejected: {exc}", file=sys.stderr)
        return 3
    except IneqLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result.to_dict(), indent=2))
    return 0 if result.passed else 1


def _cmd_omega(args) -> int:
    try:
        result = numerical_radius(load_matrix(args.input))
        document = {
            "omega": result.omega,
            "upper": result.upper,
            "argmax_angle": result.argmax_angle,
            "operator_norm": result.norm,
            "witness": vector_to_json_dict(result.witness),
        }
    except IneqLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(document, indent=2))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "check":
        return _cmd_check(args)
    return _cmd_omega(args)


if __name__ == "__main__":
    sys.exit(main())
