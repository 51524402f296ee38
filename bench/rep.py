"""One repetition of one workload, in the fresh interpreter ``run.py`` starts.

Prints one JSON object on the last line of standard output.  Not meant to be
run by hand; ``run.py`` sets its environment (``PYTHONPATH``,
``PYTHONHASHSEED``, ``REPRO_ANALYSIS_CACHE``) and passes its own clock
reading, so set-up time covers interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from tracing import Tracer, clock


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "toy"), required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    import_started = clock()
    import workloads  # imports the program under test: part of set-up

    imported = (import_started, clock())
    result = workloads.run_rep(
        args.workload, args.scale, args.seed, tracer, args.spawned_ns, imported
    )
    if tracer is not None:
        out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        result["trace_file"] = os.path.join(out_dir, f"trace-{args.workload}.json")
        tracer.write(result["trace_file"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
