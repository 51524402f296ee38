"""Benchmark gate: static-independence pruning cuts the DFS schedule space.

``dpor-lite`` must cover the same bounded search space as plain ``dfs`` —
finding exactly the same bug kinds — while enumerating at least 2x fewer
schedules.  Both strategies are fully deterministic, so the iteration counts
are exact, not noisy timings.

Known-good reference (one-node failover scenario, max_steps=7): DFS exhausts
the space in 10669 schedules, the field-level independence table prunes it
to 1862 (5.73x).
"""

try:
    from conftest import record_bench_result
except ImportError:  # imported as a plain module, outside a pytest session
    def record_bench_result(gate, **metrics):
        pass

from repro.analysis import independence_for_classes
from repro.analysis.extract import discover_classes
from repro.core import TestingConfig, TestingEngine
from repro.vnext.harness.scenarios import build_failover_test

#: deep enough that pruning shows, shallow enough for a CI-sized exhaust
MAX_STEPS = 7


def _exhaust(strategy: str, independence=None):
    config = TestingConfig(
        iterations=2_000_000,
        max_steps=MAX_STEPS,
        stop_at_first_bug=False,
        max_bugs=None,
        max_log_records=16,
        strategy=strategy,
        independence=independence,
    )
    engine = TestingEngine(build_failover_test(fixed=False, num_nodes=1), config)
    report = engine.run()
    assert report.state_space_exhausted, f"{strategy} did not exhaust the space"
    return report


def test_bench_dpor_prunes_dfs_schedule_space(benchmark):
    table = independence_for_classes(
        discover_classes(lambda: build_failover_test(fixed=False, num_nodes=1))
    )
    dfs = _exhaust("dfs")
    pruned = benchmark.pedantic(
        lambda: _exhaust("dpor-lite", independence=table), rounds=1, iterations=1
    )
    ratio = dfs.iterations_executed / pruned.iterations_executed
    print()
    print(
        f"[dpor-lite gate] dfs={dfs.iterations_executed} schedules, "
        f"dpor-lite={pruned.iterations_executed} schedules ({ratio:.2f}x fewer)"
    )
    record_bench_result(
        "dpor-lite",
        dfs_schedules=dfs.iterations_executed,
        dpor_schedules=pruned.iterations_executed,
        prune_ratio=round(ratio, 3),
        dfs_seconds=round(dfs.elapsed_seconds, 3),
        dpor_seconds=round(pruned.elapsed_seconds, 3),
    )
    # identical bug coverage over the identical bounded space
    assert dfs.bug_found and pruned.bug_found
    assert {bug.kind for bug in dfs.bugs} == {bug.kind for bug in pruned.bugs}
    assert ratio >= 2.0, f"expected >= 2x pruning, got {ratio:.2f}x"


def test_bench_dpor_without_table_degenerates_to_dfs():
    dfs = _exhaust("dfs")
    plain = _exhaust("dpor-lite", independence=None)
    assert plain.iterations_executed == dfs.iterations_executed
    assert {bug.kind for bug in plain.bugs} == {bug.kind for bug in dfs.bugs}
