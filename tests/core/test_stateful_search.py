"""Stateful search: fingerprint dedupe prunes DFS without losing bugs."""

from repro.analysis import independence_for_classes
from repro.analysis.extract import discover_classes
from repro.core import DFSStrategy, TestingConfig, TestingEngine, get_scenario
from repro.core.strategy import DporLiteStrategy, create_strategy
from repro.vnext.harness.scenarios import build_failover_test

MAX_STEPS = 5


def _exhaust(strategy_name, stateful=False, independence=None, max_steps=MAX_STEPS, entry=None):
    config = TestingConfig(
        iterations=1_000_000,
        max_steps=max_steps,
        stop_at_first_bug=False,
        max_bugs=None,
        max_log_records=16,
        strategy=strategy_name,
        stateful=stateful,
        independence=independence,
    )
    engine = TestingEngine(entry or build_failover_test(fixed=False, num_nodes=1), config)
    report = engine.run()
    assert report.state_space_exhausted
    return report, engine.strategy


def test_stateful_dfs_explores_fewer_schedules_same_bugs():
    plain, _ = _exhaust("dfs")
    pruned, strategy = _exhaust("dfs", stateful=True)
    assert pruned.iterations_executed < plain.iterations_executed
    assert {b.kind for b in pruned.bugs} == {b.kind for b in plain.bugs}
    assert strategy.pruned_schedules > 0


def test_stateful_dfs_same_bug_kinds_on_migratingtable():
    # Its machines and events carry enum members (``PartitionState``), which
    # once all hashed alike: dedupe must tell states apart by them.
    build = get_scenario("migratingtable/DeletePrimaryKey/directed").build
    plain, _ = _exhaust("dfs", max_steps=8, entry=build())
    pruned, _ = _exhaust("dfs", stateful=True, max_steps=8, entry=build())
    assert pruned.iterations_executed <= plain.iterations_executed
    assert {b.kind for b in pruned.bugs} == {b.kind for b in plain.bugs}


def test_stateful_dfs_composes_with_dpor_lite():
    table = independence_for_classes(
        discover_classes(lambda: build_failover_test(fixed=False, num_nodes=1))
    )
    # depth 6: deep enough that dedupe prunes beyond what sleep sets catch
    sleep_only, _ = _exhaust("dpor-lite", independence=table, max_steps=6)
    composed, _ = _exhaust("dpor-lite", stateful=True, independence=table, max_steps=6)
    assert composed.iterations_executed < sleep_only.iterations_executed
    assert {b.kind for b in composed.bugs} == {b.kind for b in sleep_only.bugs}


def test_stateful_off_by_default_and_identical_to_plain_dfs():
    plain, plain_strategy = _exhaust("dfs")
    assert not plain_strategy.wants_fingerprints
    assert plain_strategy.pruned_schedules == 0
    off, _ = _exhaust("dfs", stateful=False)
    assert off.iterations_executed == plain.iterations_executed


def test_stateful_search_is_deterministic():
    a, _ = _exhaust("dfs", stateful=True)
    b, _ = _exhaust("dfs", stateful=True)
    assert a.iterations_executed == b.iterations_executed
    assert sorted(fp for fp in a.coverage.fingerprints) == sorted(
        fp for fp in b.coverage.fingerprints
    )


def test_from_config_threads_stateful_flag():
    config = TestingConfig(strategy="dfs", stateful=True)
    strategy = create_strategy(config)
    assert isinstance(strategy, DFSStrategy)
    assert strategy.wants_fingerprints

    config = TestingConfig(strategy="dpor-lite", stateful=True)
    strategy = create_strategy(config)
    assert isinstance(strategy, DporLiteStrategy)
    assert strategy.wants_fingerprints

    extra = TestingConfig(strategy="dfs", extra={"dfs": {"stateful": True}})
    assert create_strategy(extra).wants_fingerprints
