"""Compare two sets of runs written by ``run.py --runs N --out``.

    python3 bench/compare.py bench/out/A.json bench/out/B.json

One row per (workload, end-to-end metric): both medians with quartiles and
sample count, how much worse B is, the bound from ``BENCHMARK.json``, and a
verdict:

* ``REGRESSED``  B's median is worse than A's by more than the bound;
* ``unresolved`` it is not, but a set's quartiles lie further apart than the
  bound, so "no change" cannot be told from noise (not reported as unchanged);
* ``improved``   every run of B reads better than every run of A;
* ``unchanged``  otherwise.

Then the share of failed operations and the exact counts of each workload.
Exits 1 on a regression or a higher share of failed operations.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Sequence

from run import load_benchmark, quartiles


def _runs(document: Dict[str, Any], workload: str) -> List[Dict[str, Any]]:
    return [
        run for run in document["runs"] if run["workload"] == workload and not run["trace"]
    ]


def _cell(values: Sequence[float]) -> str:
    median, q1, q3 = quartiles(values)
    return f"{median:10.4g} [{q1:9.4g},{q3:9.4g}] n={len(values):<2d}"


def verdict(a: Sequence[float], b: Sequence[float], lower_is_better: bool, bound: float):
    """``(share by which B's median is worse than A's, verdict)``."""
    sign = 1.0 if lower_is_better else -1.0
    (a_median, a_q1, a_q3), (b_median, b_q1, b_q3) = quartiles(a), quartiles(b)
    worse = sign * (b_median - a_median) / a_median
    if worse > bound:
        return worse, "REGRESSED"
    if max(sign * value for value in b) < min(sign * value for value in a):
        return worse, "improved"
    spread = max((a_q3 - a_q1) / a_median, (b_q3 - b_q1) / b_median)
    return worse, "unresolved" if spread > bound else "unchanged"


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, "r", encoding="utf-8") as handle:
            documents.append(json.load(handle))
    first, second = documents
    benchmark = load_benchmark()
    for label, document in zip("AB", documents):
        print(f"{label}: {document['stamp']}  seconds={document['seconds']}")
    bad = False
    print(
        f"\n{'workload':17s} {'metric':12s} {'A median [q1,q3]':38s} "
        f"{'B median [q1,q3]':38s} {'worse':>7s} {'bound':>6s}  verdict"
    )
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        a_runs, b_runs = _runs(first, workload), _runs(second, workload)
        if not a_runs or not b_runs:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name]["value"] for run in a_runs]
            b = [run["metrics"][name]["value"] for run in b_runs]
            worse, word = verdict(a, b, metric["better"] == "lower", metric["bound"])
            bad |= word == "REGRESSED"
            print(
                f"{workload:17s} {name:12s} {_cell(a)} {_cell(b)} "
                f"{worse:+7.1%} {metric['bound']:6.0%}  {word}"
            )
        shares = [
            sum(run["failed"] for run in runs) / sum(run["attempted"] for run in runs)
            for runs in (a_runs, b_runs)
        ]
        higher = shares[1] > shares[0]
        bad |= higher
        print(
            f"{workload:17s} failed_ops_share {shares[0]:.6f} -> {shares[1]:.6f}"
            f"{'  HIGHER' if higher else ''}"
        )
        # Exact counts are compared seed by seed: cover-random's depend on it.
        b_exact = {run["seed"]: run["exact"] for run in b_runs}
        pairs = [(run["exact"], b_exact[run["seed"]]) for run in a_runs if run["seed"] in b_exact]
        changed = sorted({key for a, b in pairs for key in a if a[key] != b.get(key)})
        print(
            f"{workload:17s} exact counts over {len(pairs)} shared seed(s): "
            f"{'changed: ' + ', '.join(changed) if changed else 'identical'}"
        )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
