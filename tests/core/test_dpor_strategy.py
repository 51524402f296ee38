"""The ``dpor-lite`` strategy: sleep-set pruning soundness and degradation.

Soundness is checked two ways:

* **Exhaustive** (vnext failover, small depth): both ``dfs`` and ``dpor-lite``
  exhaust the bounded schedule space, must find exactly the same bug kinds,
  and the pruned search must enumerate strictly fewer schedules.
* **Cross-validation over every Table-2 scenario**: identical budgets, the
  bug-kind sets must match (this also drives footprint resolution against
  every case-study harness; the MigratingTable spaces are too wide to exhaust
  at CI budgets, so their comparison guards against *spurious* bugs).
"""

import hashlib

import pytest

from repro.analysis import independence_for_scenarios
from repro.core import TestingConfig, TestingEngine, TestRuntime
from repro.core.registry import all_scenarios, get_scenario, load_builtin_scenarios
from repro.core.strategy import create_strategy
from repro.core.strategy.dpor_lite import DporLiteStrategy, _independent, _Touch


def _table2_cases():
    load_builtin_scenarios()
    return all_scenarios(tag="table2")


def _run(case, strategy, table, iterations, max_steps):
    config = case.default_config(
        strategy=strategy,
        iterations=iterations,
        max_steps=max_steps,
        stop_at_first_bug=False,
        max_bugs=None,
        max_log_records=16,
        independence=table,
    )
    return TestingEngine(case.build(), config).run()


# ---------------------------------------------------------------------------
# soundness
# ---------------------------------------------------------------------------
def test_pruned_exhaustive_search_finds_the_same_bugs_with_fewer_schedules():
    load_builtin_scenarios()
    case = get_scenario("vnext/extent-node-liveness")
    table = independence_for_scenarios([case])
    dfs = _run(case, "dfs", None, 20_000, 5)
    pruned = _run(case, "dpor-lite", table, 20_000, 5)
    assert dfs.state_space_exhausted and pruned.state_space_exhausted
    assert dfs.bug_found and pruned.bug_found
    assert {b.kind for b in dfs.bugs} == {b.kind for b in pruned.bugs}
    assert pruned.iterations_executed < dfs.iterations_executed


@pytest.mark.parametrize(
    "case", _table2_cases(), ids=lambda case: case.name.replace("/", "-")
)
def test_cross_validation_identical_bug_sets_on_table2(case):
    table = independence_for_scenarios([case])
    dfs = _run(case, "dfs", None, 600, 6)
    pruned = _run(case, "dpor-lite", table, 600, 6)
    assert {b.kind for b in dfs.bugs} == {b.kind for b in pruned.bugs}


def test_without_a_table_dpor_lite_is_exactly_dfs():
    """No independence facts -> identical schedule enumeration, trace for
    trace, not merely identical bug sets."""
    load_builtin_scenarios()
    case = get_scenario("vnext/extent-node-liveness")

    def digests(strategy_name):
        config = case.default_config(
            strategy=strategy_name, iterations=25, max_steps=6,
            stop_at_first_bug=False, max_bugs=None, max_log_records=16,
        )
        strategy = create_strategy(config)
        out = []
        for iteration in range(config.iterations):
            strategy.prepare_iteration(iteration)
            if strategy.exhausted:
                break
            runtime = TestRuntime(strategy, config)
            runtime.run(case.build())
            out.append(hashlib.sha256(runtime.trace.to_json().encode()).hexdigest())
        return out

    assert digests("dpor-lite") == digests("dfs")


# ---------------------------------------------------------------------------
# table plumbing
# ---------------------------------------------------------------------------
def test_unsupported_table_version_disables_pruning():
    for version in (1, 99):
        strategy = DporLiteStrategy(independence={"version": version, "machines": {}})
        assert strategy._table is None
    strategy = DporLiteStrategy(independence=None)
    assert strategy._table is None
    strategy = DporLiteStrategy(independence={"version": 2, "machines": {}})
    assert strategy._table == {}


def test_from_config_reads_the_independence_field():
    config = TestingConfig(
        strategy="dpor-lite", independence={"version": 2, "machines": {}}
    )
    strategy = create_strategy(config)
    assert isinstance(strategy, DporLiteStrategy)
    assert strategy._table == {}


# ---------------------------------------------------------------------------
# the conflict predicate
# ---------------------------------------------------------------------------
def _touch(writes=(), reads=(), inst_classes=(), classes=(), monitors=(), creates=False):
    return _Touch(
        writes=frozenset(writes),
        reads=frozenset(reads),
        inst_classes=frozenset(inst_classes),
        classes=frozenset(classes),
        monitors=frozenset(monitors),
        creates=creates,
    )


def test_disjoint_footprints_commute():
    a = _touch(writes={1}, inst_classes={"m.A"})
    b = _touch(writes={2}, inst_classes={"m.B"})
    assert _independent(a, b) and _independent(b, a)


def test_shared_write_is_a_conflict():
    a = _touch(writes={1, 3})
    b = _touch(writes={3})
    assert not _independent(a, b)


def test_read_read_overlap_commutes():
    # only sends (writes) change an inbox; two queries cannot observe each
    # other — this is the precision the v2 field-level table buys
    a = _touch(writes={1}, reads={3})
    b = _touch(writes={2}, reads={3})
    assert _independent(a, b) and _independent(b, a)


def test_write_against_read_is_a_conflict_both_ways():
    writer = _touch(writes={3})
    reader = _touch(writes={1}, reads={3})
    assert not _independent(writer, reader)
    assert not _independent(reader, writer)


def test_shared_monitor_is_a_conflict():
    a = _touch(writes={1}, monitors={"m.Mon"})
    b = _touch(writes={2}, monitors={"m.Mon"})
    assert not _independent(a, b)


def test_two_creators_conflict_on_id_allocation_order():
    a = _touch(writes={1}, creates=True)
    b = _touch(writes={2}, creates=True)
    assert not _independent(a, b)
    # a single creator commutes with a non-creator it does not touch
    assert _independent(a, _touch(writes={2}))


def test_fresh_class_conflicts_with_instances_of_the_same_class():
    a = _touch(writes={1}, classes={"m.B"})
    b = _touch(writes={2}, inst_classes={"m.B"})
    assert not _independent(a, b)
    assert not _independent(b, a)
    assert _independent(a, _touch(writes={2}, inst_classes={"m.C"}))
