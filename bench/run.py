"""One command for every number later PRs are judged by.

    python3 bench/run.py                                    # all workloads, once
    python3 bench/run.py --workload serve --seconds 30
    python3 bench/run.py --workload exhaust-dpor --trace 1  # per-layer numbers
    python3 bench/run.py --runs 10 --out bench/out/A.json   # a set for compare.py

A *run* measures one workload for ``--seconds``: repetitions of one pass,
each in a fresh interpreter (``rep.py``), as many as fit.  ``--trace 0``
prints the end-to-end metrics declared in ``BENCHMARK.json``, each the median
of the run's repetitions, times in nominal seconds (README, *Why times are
scaled by a gauge*).  ``--trace 1`` repeats rounds of one untraced pass, one
traced pass and the comparator some layers need, and prints the median over
the rounds of every per-layer metric, ``0`` where a workload bypasses the
layer.  The last line of standard output of each run is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.

This process never imports the program under test.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SRC_DIR = os.path.join(ROOT, "src")

#: a repetition takes 0.5-3 s; one that is still running after this is stuck
REP_TIMEOUT_S = 120

#: Workloads that keep every CPU.  A repetition of any other is one process
#: and is confined to one CPU, a different one each time, so that the gauge it
#: reads is the speed of the CPU its pass runs on (README, *Why times are
#: scaled by a gauge*).
MULTI_CPU = {"exhaust-parallel"}

#: traced workload -> (workload whose repetition it is compared with, traced?)
COMPARATORS = {
    "exhaust-stateful": ("exhaust-dfs", 1),
    "cover-random": ("cover-random.off-twin", 1),
    "exhaust-parallel": ("exhaust-dpor", 0),
}


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(median, q1, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


@functools.lru_cache(maxsize=None)
def _commit() -> str:
    # An exported tree has no .git: keep git from looking for one above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()  # fmt: skip
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def stamp(start_method: str) -> Dict[str, Any]:
    """Where the numbers were taken: they compare only on the same stamp."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "start_method": start_method,
        "commit": _commit(),
    }


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------
class Repetitions:
    """Starts ``rep.py`` interpreters for one run and cleans up after them."""

    def __init__(self, scale: str) -> None:
        self.scale = scale
        self.cpus = sorted(os.sched_getaffinity(0))
        self.started = os.getpid()  # so that concurrent runs do not start on the same CPU
        os.makedirs(OUT_DIR, exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
        self.env = dict(os.environ)
        inherited = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = SRC_DIR + (os.pathsep + inherited if inherited else "")
        # Fingerprints must not depend on it; pinning it removes one source
        # of run-to-run difference in dict/set-heavy code.
        self.env["PYTHONHASHSEED"] = "0"

    def __enter__(self) -> "Repetitions":
        return self

    def __exit__(self, *exc: Any) -> None:
        os.sched_setaffinity(0, self.cpus)
        shutil.rmtree(self.scratch, ignore_errors=True)

    def rep(self, workload: str, seed: int, trace: int) -> Dict[str, Any]:
        command = [
            sys.executable, os.path.join(BENCH_DIR, "rep.py"),
            "--workload", workload, "--seed", str(seed), "--trace", str(trace),
            "--scale", self.scale, "--spawned-ns", str(time.perf_counter_ns()),
        ]  # fmt: skip
        # The repetition inherits this process's CPUs, from its first instruction.
        own = self.cpus if workload in MULTI_CPU else [self.cpus[self.started % len(self.cpus)]]
        os.sched_setaffinity(0, own)
        self.started += 1
        # A directory of its own keeps the analyzer's on-disk cache out of
        # ./.repro-cache, and cold in every repetition.
        env = dict(self.env, REPRO_ANALYSIS_CACHE=os.path.join(self.scratch, str(self.started)))
        # Own session: exhaust-parallel's workers die with a stuck repetition.
        process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )  # fmt: skip
        try:
            output, _ = process.communicate(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{workload}: repetition still running after {REP_TIMEOUT_S}s")
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
        if process.returncode != 0:
            raise RuntimeError(f"{workload}: repetition exited with {process.returncode}")
        return json.loads(output.strip().splitlines()[-1])


def _accounting(reps: Sequence[Dict[str, Any]]) -> Tuple[int, int, List[str]]:
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    messages = [message for rep in reps for message in rep["failures"]]
    comparable = [rep["exact"] for rep in reps if rep["workload"] == reps[0]["workload"]]
    if any(exact != comparable[0] for exact in comparable):
        failed = attempted
        messages.append(f"exact counts differ between passes: {comparable}")
    return attempted, failed, messages


def untraced_sample(
    reps: Repetitions, workload: str, seed: int
) -> Tuple[Dict[str, float], List[Dict[str, Any]]]:
    """One pass: one sample of every end-to-end metric."""
    rep = reps.rep(workload, seed, 0)
    return {name: rep[name] for name in ("wall_s", "setup_s", "peak_rss_mb")}, [rep]


def traced_sample(
    reps: Repetitions, workload: str, seed: int
) -> Tuple[Dict[str, float], List[Dict[str, Any]]]:
    """One round — an untraced pass, a traced pass, and the comparator if
    there is one: one sample of every per-layer metric the workload has."""
    base = reps.rep(workload, seed, 0)
    traced = reps.rep(workload, seed, 1)
    layers = dict(traced["layers"])
    layers.update(base["layers"])  # where both report, the untraced pass counts
    layers["bench.trace_overhead"] = traced["wall_s"] / base["wall_s"]
    done = [base, traced]
    if workload in COMPARATORS:
        other_name, other_trace = COMPARATORS[workload]
        other = reps.rep(other_name, seed, other_trace)
        done.append(other)
        if workload == "exhaust-parallel":
            layers["parallel.speedup"] = other["wall_s"] / base["wall_s"]
            layers["parallel.redundancy"] = (
                base["layers"]["engine.schedules"] / other["layers"]["engine.schedules"]
            )
            if other["exact"]["digest"] != base["exact"]["digest"]:
                base["failed"] = base["attempted"]
                base["failures"].append("fingerprint digest differs from exhaust-dpor's")
        else:  # the comparator is the same search with the fingerprint layer off
            without = other["layers"]["runtime.step_us"]
            layers["fingerprint.step_overhead_us"] = layers["runtime.step_us"] - without
            layers["fingerprint.overhead_ratio"] = layers["runtime.step_us"] / without
    return layers, done


def sample_while_fits(
    seconds: float, sample: Callable[[], Tuple[Dict[str, float], List[Dict[str, Any]]]]
) -> Tuple[Dict[str, List[float]], List[Dict[str, Any]]]:
    """Take samples until the run would outlast ``seconds`` if another were
    taken, going by the slowest so far; at least one."""
    samples: Dict[str, List[float]] = {}
    done: List[Dict[str, Any]] = []
    started = time.perf_counter()
    slowest = 0.0
    while True:
        before = time.perf_counter()
        values, passes = sample()
        now = time.perf_counter()
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
        done.extend(passes)
        slowest = max(slowest, now - before)
        if now - started + slowest > seconds:
            return samples, done


def measure(
    benchmark: Dict[str, Any], workload: str, seed: int, seconds: float, trace: int, scale: str
) -> Dict[str, Any]:
    """One run: the contract's result object plus what ``compare.py`` reads."""
    sample = traced_sample if trace else untraced_sample
    declared = benchmark["per_layer" if trace else "end_to_end"]
    with Repetitions(scale) as reps:
        samples, done = sample_while_fits(seconds, lambda: sample(reps, workload, seed))
    unknown = sorted(set(samples) - {metric["name"] for metric in declared})
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {unknown}")
    attempted, failed, messages = _accounting(done)
    metrics = {}
    for metric in declared:
        # A per-layer metric nothing reported: this workload bypasses the layer.
        values = samples.get(metric["name"], [0.0])
        median, q1, q3 = quartiles(values)
        metrics[metric["name"]] = {
            "value": median, "unit": metric["unit"], "q1": q1, "q3": q3,
            "n": len(values), "samples": values,
        }  # fmt: skip
    own = [rep for rep in done if rep["workload"] == workload]
    return {
        "workload": workload,
        "seed": seed,
        "seed_effect": done[0]["seed_effect"],
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": messages,
        "metrics": metrics,
        "exact": done[0]["exact"],
        # what the host did meanwhile: the gauge, and the pass in real seconds
        "host": {
            key: statistics.median(rep[key] for rep in own) for key in ("gauge_us", "raw_wall_s")
        },
        "stamp": stamp(done[0]["start_method"]),
        "trace_file": done[1].get("trace_file") if trace else None,
    }


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------
def print_run(result: Dict[str, Any]) -> None:
    print(
        f"# {result['workload']}  seed {result['seed']} (changes: {result['seed_effect']})  "
        f"trace {result['trace']}  ops {result['attempted']}  failed {result['failed']}"
    )
    print("# " + "  ".join(f"{key} {value}" for key, value in result["stamp"].items()))
    print(
        f"# times in nominal seconds; the host ran the gauge kernel in "
        f"{result['host']['gauge_us']:.0f} us and one pass in {result['host']['raw_wall_s']:.3f} s"
    )
    print(f"{'metric':30s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>3s}")
    for name, metric in result["metrics"].items():
        print(
            f"{name:30s} {metric['unit']:6s} {metric['value']:12.6g} {metric['q1']:12.6g} "
            f"{metric['q3']:12.6g} {metric['n']:3d}"
        )
    for key, value in result["exact"].items():
        print(f"exact {key:28s} {value}")
    if result["trace_file"]:
        print(f"spans written to {os.path.relpath(result['trace_file'], ROOT)}")
    for message in result["failures"]:
        print(f"FAILED CHECK: {message}", file=sys.stderr)
    # the contract's result line: value and unit per metric, nothing else
    line = {key: result[key] for key in ("correct", "attempted", "failed")}
    line["metrics"] = {
        name: {"value": metric["value"], "unit": metric["unit"]}
        for name, metric in result["metrics"].items()
    }
    print(json.dumps(line), flush=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    benchmark = load_benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="how long one run measures (default: run_seconds)")  # fmt: skip
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: per-layer metrics and a span file per workload")  # fmt: skip
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds --seed, --seed+1, ...")  # fmt: skip
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: the smoke test's sizes; numbers mean nothing")  # fmt: skip
    parser.add_argument("--out", help="write every run to this JSON file (for compare.py)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        print(f"error: nothing to measure: {SRC_DIR}/repro is missing", file=sys.stderr)
        return 2

    selected = names if args.workload == "all" else [args.workload]
    results = []
    for workload in selected:
        for index in range(args.runs):
            result = measure(
                benchmark, workload, args.seed + index, args.seconds, args.trace, args.scale
            )
            print_run(result)
            results.append(result)
    if args.out:
        document = {
            "stamp": results[0]["stamp"],
            "seconds": args.seconds,
            "scale": args.scale,
            "runs": results,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
