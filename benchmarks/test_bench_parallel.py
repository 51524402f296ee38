"""Benchmark gate: parallel prefix-partitioned search beats serial dpor-lite.

``run --parallel``-style exploration (:mod:`repro.core.parallel`) must cover
the same bounded space as the serial dependence-aware search — identical bug
kinds and an identical distinct-state fingerprint set — while finishing the
exhaustive one-node failover hunt at least 1.5x faster on 4 workers.

Schedule counts and fingerprint sets are deterministic, so those asserts
always run.  The wall-clock speedup assert is real-parallelism dependent:
it is skipped on hosts with fewer than 4 CPUs and (like every timing gate
in this harness) under ``REPRO_BENCH_ASSERT_SPEEDUP=0``, which ordinary
test-suite CI jobs on loaded shared runners set.  The dedicated
``parallel-gate`` CI job runs this file with the assert armed, under both
the fork and spawn start methods (``MULTIPROCESSING_START_METHOD``).

Known-good reference (one-node failover, max_steps=7, v2 table, stateful):
serial dpor-lite exhausts 1726 schedules / 2046 distinct states in ~0.5s; 2
workers cover the same set in ~25 claims (a worker keeps its subtree and
splits it only when another needs work; 140 claims when every claim ended
after 40 schedules) with only a handful of redundant executions (fingerprint
gossip prunes cross-worker revisits).
"""

import dataclasses
import multiprocessing
import os
import platform
import time

try:
    from conftest import record_bench_result
except ImportError:  # imported as a plain module, outside a pytest session
    def record_bench_result(gate, **metrics):
        pass

from repro.analysis import independence_for_classes
from repro.analysis.extract import discover_classes
from repro.core import TestingConfig, TestingEngine, get_scenario, load_builtin_scenarios
from repro.core.parallel import ParallelExplorer
from repro.vnext.harness.scenarios import build_failover_test

ASSERT_SPEEDUP = os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP", "1") != "0"

SCENARIO = "vnext/failover-1node"
#: deep enough that claims keep splitting, shallow enough for a CI-sized run
MAX_STEPS = 7
WORKERS = 4
CLAIM_ITERATIONS = 40


def _testcase():
    load_builtin_scenarios()
    return get_scenario(SCENARIO)


def _config() -> TestingConfig:
    table = independence_for_classes(
        discover_classes(lambda: build_failover_test(fixed=False, num_nodes=1))
    )
    return TestingConfig(
        iterations=2_000_000,
        max_steps=MAX_STEPS,
        stop_at_first_bug=False,
        max_bugs=None,
        max_log_records=16,
        strategy="dpor-lite",
        stateful=True,
        fingerprints=True,
        independence=table,
    )


def test_bench_parallel_speedup_over_serial_dpor(benchmark):
    testcase = _testcase()
    config = _config()

    started = time.perf_counter()
    serial = TestingEngine(testcase.build(), config).run()
    serial_seconds = time.perf_counter() - started
    assert serial.state_space_exhausted

    explorer = ParallelExplorer(
        testcase,
        strategy="dpor-lite",
        num_workers=WORKERS,
        config=config,
        claim_iterations=CLAIM_ITERATIONS,
    )
    parallel = benchmark.pedantic(explorer.run, rounds=1, iterations=1)
    assert parallel.state_space_exhausted

    speedup = serial_seconds / parallel.elapsed_seconds
    start_method = multiprocessing.get_start_method()
    print()
    print(
        f"[parallel gate/{start_method}] serial={serial.iterations_executed} "
        f"schedules in {serial_seconds:.2f}s, parallel={parallel.total_iterations} "
        f"schedules across {len(parallel.results)} claims in "
        f"{parallel.elapsed_seconds:.2f}s on {WORKERS} workers "
        f"({speedup:.2f}x speedup)"
    )
    record_bench_result(
        f"parallel-{start_method}",
        workers=WORKERS,
        claim_iterations=CLAIM_ITERATIONS,
        serial_schedules=serial.iterations_executed,
        parallel_schedules=parallel.total_iterations,
        claims=len(parallel.results),
        serial_seconds=round(serial_seconds, 3),
        parallel_seconds=round(parallel.elapsed_seconds, 3),
        speedup=round(speedup, 3),
        distinct_states=len(serial.coverage.fingerprints),
        cpus=os.cpu_count(),
        python=platform.python_version(),
    )

    # the parallel run proves the same facts as the serial one: same bug
    # kinds, same distinct-state set (the sets, not just their sizes)
    assert parallel.bug_found and serial.bug_found
    assert {bug.kind for bug in parallel.bugs} == {bug.kind for bug in serial.bugs}
    assert parallel.merged_coverage.fingerprints == serial.coverage.fingerprints
    # fingerprint gossip keeps cross-worker redundancy marginal
    assert parallel.total_iterations <= 1.25 * serial.iterations_executed

    if ASSERT_SPEEDUP and (os.cpu_count() or 1) >= WORKERS:
        assert speedup >= 1.5, (
            f"expected >= 1.5x speedup with {WORKERS} workers, got {speedup:.2f}x"
        )


def test_bench_parallel_single_worker_is_the_serial_search():
    """``num_workers=1`` must be trace-for-trace the serial engine."""
    testcase = _testcase()
    config = dataclasses.replace(_config(), max_steps=5)
    serial = TestingEngine(testcase.build(), config).run()
    one = ParallelExplorer(
        testcase, strategy="dpor-lite", num_workers=1, config=config
    ).run()
    assert one.state_space_exhausted
    report = one.results[0].report
    assert report.iterations_executed == serial.iterations_executed
    assert [bug.to_dict() for bug in report.bugs] == [bug.to_dict() for bug in serial.bugs]
    assert report.coverage.fingerprints == serial.coverage.fingerprints
