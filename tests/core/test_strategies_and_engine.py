"""Tests for scheduling strategies, the engine, traces and replay."""

import pytest

from repro.core import (
    DFSStrategy,
    Event,
    Machine,
    PCTStrategy,
    RandomStrategy,
    ReplayStrategy,
    RoundRobinStrategy,
    ScheduleTrace,
    TestingConfig,
    TestingEngine,
    TraceStep,
    create_strategy,
    on_event,
    run_test,
)
from repro.core.errors import ReplayDivergenceError
from repro.core.ids import MachineId


def ids(n):
    return [MachineId(i, f"M{i}") for i in range(n)]


def test_random_strategy_is_deterministic_per_iteration():
    a, b = RandomStrategy(seed=3), RandomStrategy(seed=3)
    a.prepare_iteration(5)
    b.prepare_iteration(5)
    enabled = ids(4)
    assert [a.next_machine(enabled, i) for i in range(20)] == [
        b.next_machine(enabled, i) for i in range(20)
    ]


def test_random_strategy_varies_across_iterations():
    strategy = RandomStrategy(seed=3)
    strategy.prepare_iteration(0)
    enabled = ids(4)
    first = [strategy.next_machine(enabled, i) for i in range(20)]
    strategy.prepare_iteration(1)
    second = [strategy.next_machine(enabled, i) for i in range(20)]
    assert first != second


def test_pct_strategy_prefers_highest_priority_machine():
    strategy = PCTStrategy(seed=1, priority_switches=0, fair_suffix_start=None)
    strategy.prepare_iteration(0)
    enabled = ids(3)
    choices = {strategy.next_machine(enabled, i) for i in range(10)}
    assert len(choices) == 1


def test_pct_fair_suffix_uses_all_machines():
    strategy = PCTStrategy(seed=1, priority_switches=0, fair_suffix_start=0)
    strategy.prepare_iteration(0)
    enabled = ids(3)
    choices = {strategy.next_machine(enabled, i) for i in range(50)}
    assert len(choices) == 3


def test_round_robin_cycles_through_machines():
    strategy = RoundRobinStrategy()
    strategy.prepare_iteration(0)
    enabled = ids(3)
    picks = [strategy.next_machine(enabled, i).value for i in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]


def test_dfs_strategy_enumerates_boolean_tree():
    strategy = DFSStrategy()
    requester = MachineId(0, "M")
    seen = set()
    for iteration in range(10):
        strategy.prepare_iteration(iteration)
        if strategy.exhausted:
            break
        seen.add((strategy.next_boolean(requester, 0), strategy.next_boolean(requester, 1)))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}
    assert strategy.exhausted


def test_create_strategy_factory():
    assert isinstance(create_strategy(TestingConfig(strategy="random")), RandomStrategy)
    assert isinstance(create_strategy(TestingConfig(strategy="pct")), PCTStrategy)
    assert isinstance(create_strategy(TestingConfig(strategy="round-robin")), RoundRobinStrategy)
    with pytest.raises(ValueError):
        create_strategy(TestingConfig(strategy="nope"))


def test_config_validation():
    with pytest.raises(ValueError):
        TestingConfig(iterations=0)
    with pytest.raises(ValueError):
        TestingConfig(max_steps=0)


# ---------------------------------------------------------------------------
# engine, trace and replay
# ---------------------------------------------------------------------------
class Token(Event):
    def __init__(self, hops):
        self.hops = hops


class SetPeer(Event):
    def __init__(self, peer):
        self.peer = peer


class RingNode(Machine):
    def on_start(self):
        self.peer = None
        self.received = 0

    @on_event(SetPeer)
    def set_peer(self, event):
        self.peer = event.peer

    @on_event(Token)
    def forward(self, event):
        self.received += 1
        self.assert_that(event.hops < 6, "token travelled too far")
        if self.peer is not None:
            self.send(self.peer, Token(event.hops + 1))


def ring_test(runtime):
    a = runtime.create_machine(RingNode)
    b = runtime.create_machine(RingNode)
    runtime.send_event(a, SetPeer(b))
    runtime.send_event(b, SetPeer(a))
    runtime.send_event(a, Token(0))


def test_engine_finds_bug_and_reports_metrics():
    report = run_test(ring_test, TestingConfig(iterations=5, max_steps=100, seed=1))
    assert report.bug_found
    assert report.first_bug.kind == "safety"
    assert report.time_to_first_bug is not None
    assert report.num_nondeterministic_choices > 0
    assert report.iterations_executed >= 1


def test_engine_replay_reproduces_bug():
    engine = TestingEngine(ring_test, TestingConfig(iterations=5, max_steps=100, seed=1))
    report = engine.run()
    assert report.bug_found
    replayed = engine.replay(report.first_bug.trace)
    assert replayed is not None
    assert replayed.kind == report.first_bug.kind
    assert replayed.message == report.first_bug.message


def test_engine_collects_coverage():
    report = run_test(ring_test, TestingConfig(iterations=3, max_steps=100, seed=1))
    summary = report.coverage.summary()
    assert summary["machine_types"] == 1
    assert summary["events_sent"] > 0


def test_trace_serialization_roundtrip(tmp_path):
    trace = ScheduleTrace()
    trace.add_scheduling_choice(1, "M(1)")
    trace.add_boolean_choice(True, "M(1)")
    trace.add_integer_choice(3, "M(2)")
    trace.log.append("hello")
    path = tmp_path / "trace.json"
    trace.save(str(path))
    loaded = ScheduleTrace.load(str(path))
    assert loaded.steps == trace.steps
    assert loaded.log == ["hello"]
    assert loaded.num_nondeterministic_choices == 3
    assert loaded.num_scheduling_choices == 1
    assert loaded.num_value_choices == 2


def test_replay_divergence_detected():
    trace = ScheduleTrace(steps=[TraceStep("bool", 1)])
    strategy = ReplayStrategy(trace)
    strategy.prepare_iteration(0)
    with pytest.raises(ReplayDivergenceError):
        strategy.next_machine([MachineId(0, "M")], 0)


def test_stop_at_first_bug_false_collects_multiple_bugs():
    config = TestingConfig(iterations=6, max_steps=100, seed=1, stop_at_first_bug=False)
    report = run_test(ring_test, config)
    assert report.iterations_executed == 6
    assert len(report.bugs) >= 1


def test_report_summary_strings():
    report = run_test(ring_test, TestingConfig(iterations=3, max_steps=100, seed=1))
    assert "bug found" in report.summary()
    clean = run_test(lambda rt: None, TestingConfig(iterations=2, max_steps=10))
    assert "no bug found" in clean.summary()


def test_report_summary_survives_missing_timing_fields():
    """A JSON-loaded report with bugs but no timing must not crash."""
    from repro.core.engine import TestReport

    report = run_test(ring_test, TestingConfig(iterations=3, max_steps=100, seed=1))
    assert report.bug_found
    payload = report.to_dict()
    # older writers (and cross-process aggregators) drop the timing fields
    payload.pop("time_to_first_bug", None)
    payload.pop("first_bug_iteration", None)
    loaded = TestReport.from_dict(payload)
    assert loaded.bug_found
    assert "timing unavailable" in loaded.summary()

    import json as json_module

    payload["time_to_first_bug"] = None
    payload["first_bug_iteration"] = None
    via_json = TestReport.from_json(json_module.dumps(payload))
    assert "timing unavailable" in via_json.summary()

    # the normal in-process path is unaffected
    assert "timing unavailable" not in report.summary()


def test_coverage_from_dict_reports_malformed_handled_row():
    from repro.core import CoverageTracker

    with pytest.raises(ValueError, match="coverage handled row 1"):
        CoverageTracker.from_dict(
            {"handled": [["M", "s", "E", 1], ["M", "s", "E"]]}
        )


# ---------------------------------------------------------------------------
# PCT change-point regressions
# ---------------------------------------------------------------------------
def test_pct_change_points_are_distinct():
    """Duplicate draws must not silently waste priority switches."""
    for iteration in range(200):
        strategy = PCTStrategy(seed=13, priority_switches=3, expected_length=4)
        strategy.prepare_iteration(iteration)
        points = strategy._change_points
        assert len(points) == len(set(points)) == 3


def test_pct_change_point_budget_capped_by_expected_length():
    strategy = PCTStrategy(seed=1, priority_switches=10, expected_length=4)
    strategy.prepare_iteration(0)
    assert sorted(strategy._change_points) == [0, 1, 2, 3]


def test_pct_drains_drifted_change_points_in_one_call():
    """Steps shared with value choices can jump past several change points;
    every stale point must be consumed (and demote) at the next scheduling
    point instead of smearing onto arbitrary later steps."""
    strategy = PCTStrategy(seed=2, priority_switches=2, expected_length=100)
    strategy.prepare_iteration(0)
    strategy._change_points = [3, 5]
    enabled = ids(4)
    strategy.next_machine(enabled, 0)  # before any change point
    assert strategy._change_points == [3, 5]
    strategy.next_machine(enabled, 50)  # drifted past both
    assert strategy._change_points == []
    # both demotions happened: two machines now carry sub-zero priorities
    demoted = [m for m in enabled if strategy._priorities.get(m.value, 1.0) < 0]
    assert len(demoted) == 2


def test_pct_demotion_schedule_regression():
    """Pin the demotion behaviour: after a change point fires, the demoted
    machine stops being scheduled until every other machine is demoted too."""
    strategy = PCTStrategy(seed=4, priority_switches=1, expected_length=1)
    strategy.prepare_iteration(0)
    enabled = ids(3)
    first = strategy.next_machine(enabled, 0)  # change point at step 0 fires
    # the machine holding the highest initial priority was demoted below
    # everything, so it is never chosen again while others are enabled
    later = {strategy.next_machine(enabled, step) for step in range(1, 10)}
    demoted = [m for m in enabled if strategy._priorities[m.value] < 0]
    assert len(demoted) == 1
    assert demoted[0] not in later
    assert first != demoted[0] or first not in later
