"""Benchmark: parallel vs. serial portfolio throughput.

Runs the same strategy portfolio (same seeds, same budget) serially and on a
worker pool, asserts the merged results are identical, and reports the
speedup.  The scenario is a clean run so every job spends its full budget —
the honest configuration for a throughput comparison.
"""

import multiprocessing
import time

from conftest import BENCH_ITERATIONS
from repro.core import Portfolio, get_scenario

SCENARIO = "examplesys/fixed"
WORKERS = max(2, min(4, multiprocessing.cpu_count()))


def _build(num_workers):
    # Liveness-at-bound checking is disabled: the unfair PCT prefix can flag
    # spurious liveness violations on a clean run, and an early stop would
    # skew the throughput comparison.
    config = get_scenario(SCENARIO).default_config(check_liveness_at_bound=False)
    return Portfolio(
        SCENARIO,
        strategies=["random", "pct"],
        iterations=BENCH_ITERATIONS,
        num_shards=WORKERS,
        num_workers=num_workers,
        seed=7,
        config=config,
    )


def _result_fingerprint(report):
    return [
        (r.unit.index, r.unit.strategy, r.unit.seed, r.report.iterations_executed,
         r.report.bug_found)
        for r in report.results
    ]


def test_bench_portfolio_parallel_vs_serial(benchmark):
    serial_started = time.perf_counter()
    serial_report = _build(1).run()
    serial_elapsed = time.perf_counter() - serial_started

    parallel_report = benchmark.pedantic(lambda: _build(WORKERS).run(), rounds=1, iterations=1)

    print()
    print(f"[portfolio serial]   {serial_report.summary()}")
    print(f"[portfolio parallel] {parallel_report.summary()}")
    speedup = serial_elapsed / max(parallel_report.elapsed_seconds, 1e-9)
    print(f"[portfolio speedup]  {speedup:.2f}x with {WORKERS} workers "
          f"({serial_elapsed:.2f}s serial vs {parallel_report.elapsed_seconds:.2f}s parallel)")

    # Same seeds => identical merged results regardless of parallelism.
    assert _result_fingerprint(serial_report) == _result_fingerprint(parallel_report)
    assert parallel_report.total_iterations == serial_report.total_iterations
