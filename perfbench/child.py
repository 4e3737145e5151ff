"""One workload run in a fresh interpreter, as a CLI invocation would be.

``run.py`` starts this script once per repetition and reads the JSON it
writes to ``--out``.  Timestamps are ``time.monotonic()`` readings, one
system-wide clock on Linux, so the parent measures set-up and wall time
from the moment it started this interpreter.  ``--mode warmup`` only
imports the program (filling the bytecode cache) and exits.
"""

import argparse
import json
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("warmup", "plain", "count", "trace"))
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    start = time.monotonic()
    import repro.experiments  # noqa: F401  (the import cost being timed)
    import repro.core.execution  # noqa: F401
    imported = time.monotonic()
    import workloads

    if args.mode == "warmup":
        result = {}
    else:
        result = workloads.run(args.workload, args.seed, args.mode, args.work)
    result["import_s"] = imported - start
    try:
        import numpy
        result["numpy"] = numpy.__version__
    except ImportError:
        result["numpy"] = None
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
