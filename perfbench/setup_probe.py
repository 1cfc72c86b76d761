"""Set-up time of one workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py ROOT WORKLOAD INPUT_JSON

Times importing ineqlab from ROOT/src and parsing the workload's input up to
the first trial (the suite config for a sweep, the call list for the check
replay), and prints the seconds taken.
"""

import json
import os
import sys
import time


def main() -> int:
    start = time.perf_counter()
    root, workload, input_path = sys.argv[1:4]
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import ineqlab
    from ineqlab import harness

    if not os.path.realpath(ineqlab.__file__).startswith(src + os.sep):
        print(f"error: ineqlab imported from {ineqlab.__file__}, not {src}", file=sys.stderr)
        return 2
    if workload in ("vector_sweep", "check_replay"):
        from ineqlab import cli  # noqa: F401  (these workloads enter through the CLI)
    with open(input_path, encoding="utf-8") as handle:
        loaded = json.load(handle)
    if workload != "check_replay":
        harness.parse_config(loaded)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
