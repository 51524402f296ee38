"""Who owns a runtime, and what is left of it once its execution is over.

``TestingEngine.run`` / ``.replay`` and the shrinker build runtimes nobody
else can see, so they end each execution through
``TestRuntime.run_and_release``: paused handler coroutines are closed while
the runtime is whole, then every back-pointer (runtime ↔ machines, machines ↔
bound handlers, monitors and tracker ↔ runtime) is cut, and the graph dies by
reference count.  These tests run with the cycle collector *disabled*: a
machine that is gone then was freed by reference count, and a ``finally:``
that ran was run by the release, not by a collection that happened by.

A runtime a user builds and calls ``run`` on is not released — it is there to
be inspected.
"""

import dataclasses
import gc
import pickle
import weakref

import pytest

from repro.core import (
    Event,
    Machine,
    Monitor,
    Receive,
    StartEvent,
    State,
    TestingConfig,
    TestingEngine,
    TestRuntime,
    on_event,
    replay_trace,
)
from repro.core._baseline import BaselineRuntime
from repro.core.fingerprint import _creation_prefix
from repro.core.ids import MachineId
from repro.core.registry import get_scenario, load_builtin_scenarios
from repro.core.strategy import create_strategy


@pytest.fixture
def no_collector():
    """Collect what earlier tests left behind, then keep the collector off."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _spy(runtime_cls, refs):
    """``runtime_cls`` recording a weakref to every machine an execution
    ended with (taken in ``run``, i.e. before the release)."""

    class Spy(runtime_cls):
        def run(self, test_entry):
            try:
                return super().run(test_entry)
            finally:
                refs.extend(weakref.ref(machine) for machine in self._machines.values())

    return Spy


def _alive(refs):
    return sorted(type(ref()).__name__ for ref in refs if ref() is not None)


# ----------------------------------------------------------------------
# the engine's runtimes die by reference count
# ----------------------------------------------------------------------
#: clean scenarios whose harnesses hold no reference cycle of their own (the
#: seed-reference runtime, which knows no event disciplines, runs the last two)
ACYCLIC_RUNS = [
    ("examplesys/flush-deferred-writes", TestRuntime),
    ("fabric/failover-fixed", TestRuntime),
    ("migratingtable/no-bugs", TestRuntime),
    ("fabric/failover-fixed", BaselineRuntime),
    ("migratingtable/no-bugs", BaselineRuntime),
]


@pytest.mark.parametrize("fingerprints", [False, True], ids=["plain", "fingerprints"])
@pytest.mark.parametrize("scenario, runtime_cls", ACYCLIC_RUNS)
def test_machines_of_finished_executions_die_without_the_collector(
    scenario, runtime_cls, fingerprints, no_collector
):
    """With fingerprints on, every step leaves a warm record behind: it holds
    keys and digests of the attributes, never the helper objects themselves."""
    load_builtin_scenarios()
    testcase = get_scenario(scenario)
    config = testcase.default_config(
        strategy="random", seed=3, iterations=4, max_steps=200, fingerprints=fingerprints
    )
    refs = []
    report = TestingEngine(testcase.build(), config, runtime_cls=_spy(runtime_cls, refs)).run()
    assert report.iterations_executed == 4 and not report.bugs
    assert len(refs) >= 8
    assert _alive(refs) == []


@pytest.mark.parametrize("fingerprints", [False, True], ids=["plain", "fingerprints"])
def test_a_monitor_that_handled_events_and_moved_dies_with_its_runtime(fingerprints, no_collector):
    """A notified monitor holds the ``StateContext`` of its state (shared, per
    class) and nothing that points back at itself: a per-instance cache of
    bound handlers on ``Monitor`` would be a cycle the release does not cut —
    measured once as +6 % on ``exhaust-dfs``; it fails here by name instead."""

    class Progress(Monitor):
        class Waiting(State, initial=True, hot=True):
            @on_event(Tick)
            def first(self):
                self.goto(Progress.Moving)

        class Moving(State):
            @on_event(Tick)
            def later(self, event):
                self.ticks = getattr(self, "ticks", 0) + 1

    class Ticker(Machine):
        def on_start(self):
            for _ in range(3):
                self.send(self.id, Tick())

        @on_event(Tick)
        def tick(self, event):
            self.notify_monitor(Progress, event)

    refs = []

    class Spy(TestRuntime):
        def run(self, test_entry):
            try:
                return super().run(test_entry)
            finally:
                monitor = self.monitor_instance(Progress)
                assert monitor.current_state == "Moving" and monitor.ticks == 2
                assert monitor._state_ctx is monitor._spec.context_for(("Moving",))
                refs.extend(map(weakref.ref, [self, monitor, *self._machines.values()]))

    def entry(runtime):
        runtime.register_monitor(Progress)
        runtime.create_machine(Ticker)

    executions = 6
    config = TestingConfig(
        strategy="random", seed=3, iterations=executions, max_steps=50, fingerprints=fingerprints
    )
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        report = TestingEngine(entry, config, runtime_cls=Spy).run()
        assert report.iterations_executed == executions and not report.bugs
        assert len(refs) == 3 * executions
        assert _alive(refs) == []
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    # test_hotpath_calls.py's bound for an exhaust-dfs execution; this harness
    # has no cycle of its own, so anything here is the framework's.
    assert garbage / executions <= 25


def test_only_the_harness_own_cycle_survives_on_examplesys(no_collector):
    """``ServerMachine`` wraps a ``ReplicationServer`` whose modeled network
    holds the machine back (the paper's wrapping pattern): a cycle in user
    objects that the framework cannot cut.  Everything else is gone."""
    load_builtin_scenarios()
    testcase = get_scenario("examplesys/fixed")
    config = testcase.default_config(strategy="random", seed=3, iterations=3, max_steps=200)
    refs = []
    TestingEngine(testcase.build(), config, runtime_cls=_spy(TestRuntime, refs)).run()
    assert len(refs) == 3 * 8
    assert _alive(refs) == ["ServerMachine"] * 3


def test_replay_and_shrinker_release_their_runtimes(no_collector):
    load_builtin_scenarios()
    # a deadlock is recorded at the end of the execution, not raised: no
    # traceback keeps a frame (and through it the culprit machine) alive
    testcase = get_scenario("examplesys/flush-lost-completion-deadlock")
    config = testcase.default_config(strategy="random", seed=3, iterations=50)
    refs = []
    engine = TestingEngine(testcase.build(), config, runtime_cls=_spy(TestRuntime, refs))
    bug = engine.run().first_bug
    assert bug is not None and bug.kind == "deadlock"
    del refs[:]

    replayed = engine.replay(bug.trace)
    assert replayed is not None and replayed.message == bug.message
    assert len(refs) == 2 and _alive(refs) == []

    result = engine.shrink_bug(bug)
    assert result.stats.replays_run > 0
    assert len(refs) == 2 * (1 + result.stats.replays_run) and _alive(refs) == []
    assert engine.replay(bug.shrunk_trace).kind == "deadlock"


# ----------------------------------------------------------------------
# what a release keeps
# ----------------------------------------------------------------------
def test_every_bug_of_an_exhaust_keeps_its_trace_log_and_step_and_replays():
    load_builtin_scenarios()
    testcase = get_scenario("vnext/failover-1node")
    config = testcase.default_config(
        strategy="dfs", iterations=100000, max_steps=5,
        stop_at_first_bug=False, max_bugs=None, max_log_records=16,
    )
    report = TestingEngine(testcase.build(), config).run()
    assert report.state_space_exhausted
    assert len(report.bugs) == report.iterations_executed > 100
    for bug in report.bugs:
        assert bug.step == 5 and len(bug.trace.steps) >= 5
        assert len(bug.log) == 16 and bug.log == bug.trace.log
        assert bug.log[-1].startswith("BUG (liveness)")
        replayed = replay_trace("vnext/failover-1node", bug.trace, config)
        assert replayed is not None
        assert (replayed.kind, replayed.message, replayed.step) == (
            bug.kind, bug.message, bug.step
        )
        assert replayed.trace.steps == bug.trace.steps and replayed.log == bug.log


def test_a_released_runtime_still_reports_its_outcome():
    load_builtin_scenarios()
    testcase = get_scenario("examplesys/liveness-bug")
    config = testcase.default_config(strategy="random", seed=1, iterations=1)
    strategy = create_strategy(config)
    strategy.prepare_iteration(0)
    runtime = TestRuntime(strategy, config)
    bug = runtime.run_and_release(testcase.build())
    assert bug is runtime.bug and bug.kind == "liveness"
    assert runtime.step_count == bug.step > 0
    assert runtime.termination_reason in ("bound", "quiescence")
    assert runtime.trace is bug.trace and runtime.execution_log == bug.log
    assert runtime.machines_of_type(Machine) == []
    assert runtime.execution_fingerprint() is None


def test_a_user_built_runtime_is_not_released_by_run():
    load_builtin_scenarios()
    testcase = get_scenario("examplesys/fixed")
    config = testcase.default_config(strategy="random", seed=1, iterations=1, max_steps=200)
    strategy = create_strategy(config)
    strategy.prepare_iteration(0)
    runtime = TestRuntime(strategy, config)
    assert runtime.run(testcase.build()) is None
    machines = runtime.machines_of_type(Machine)
    assert len(machines) == 8
    assert all(machine._runtime is runtime for machine in machines)
    assert all(runtime.machine_instance(machine.id) is machine for machine in machines)
    monitors = list(runtime._monitors)
    assert monitors and all(
        isinstance(runtime.monitor_instance(monitor_cls), Monitor) for monitor_cls in monitors
    )


# ----------------------------------------------------------------------
# paused handlers are closed by their own execution
# ----------------------------------------------------------------------
class Never(Event):
    pass


class Tick(Event):
    pass


def test_a_paused_handlers_finally_runs_at_the_end_of_its_own_execution(no_collector):
    """Before the release existed a generator paused at the end of an
    execution was closed whenever the collector reached it: its ``finally:``
    ran in the middle of some later execution (never, with the collector
    off), against a runtime that was already over."""
    current = [0]
    ended, finalised = [], []

    class Waiter(Machine):
        def on_start(self):
            try:
                yield Receive(Never)
            finally:
                finalised.append((current[0], self._runtime.step_count))

    class Ticker(Machine):
        def on_start(self):
            self.send(self.id, Tick())

        @on_event(Tick)
        def tick(self):
            if self.random():
                self.send(self.id, Tick())

    class Counting(TestRuntime):
        def run(self, test_entry):
            try:
                return super().run(test_entry)
            finally:
                ended.append((current[0], self.step_count))

    def entry(runtime):
        current[0] += 1
        runtime.create_machine(Waiter)
        runtime.create_machine(Ticker)

    config = TestingConfig(
        strategy="random", seed=7, iterations=12, max_steps=50, report_deadlocks=False
    )
    report = TestingEngine(entry, config, runtime_cls=Counting).run()
    assert report.iterations_executed == 12 and not report.bugs
    assert len({steps for _, steps in ended}) > 1  # executions of different lengths
    assert finalised == ended
    gc.collect()
    assert finalised == ended  # nothing had been left for a collection to close


# ----------------------------------------------------------------------
# construction: start arguments and ids
# ----------------------------------------------------------------------
def test_a_hand_built_machine_has_its_own_empty_start_arguments():
    """``Machine.__init__`` sets them; the kernel, the fingerprint prefix and
    the seed-reference runtime used to fall back with ``getattr`` instead."""
    started = []

    class Plain(Machine):
        def on_start(self, *args, **kwargs):
            started.append((args, kwargs))

    config = TestingConfig(strategy="random", seed=0, iterations=1, max_steps=5, fingerprints=True)
    strategy = create_strategy(config)
    strategy.prepare_iteration(0)
    runtime = TestRuntime(strategy, config)
    first, second = Plain(runtime, MachineId(0, "Plain")), Plain(runtime, MachineId(1, "Plain"))
    assert first._start_args == second._start_args == ((), {})
    assert first._start_args[1] is not second._start_args[1]
    created = runtime.create_machine(Plain, 1, two=2)
    assert runtime.machine_instance(created)._start_args == ((1,), {"two": 2})
    runtime._dispatch_control_event(first, StartEvent())
    assert started == [((), {})]
    twin = Plain(runtime, MachineId(0, "Plain"))
    assert _creation_prefix(first) == _creation_prefix(twin) != _creation_prefix(second)


def test_kernel_built_machine_ids_behave_like_constructor_built_ones():
    class Plain(Machine):
        pass

    config = TestingConfig(strategy="random", seed=0, iterations=1, max_steps=5)
    strategy = create_strategy(config)
    strategy.prepare_iteration(0)
    runtime = TestRuntime(strategy, config)
    built = [
        runtime.create_machine(Plain),
        runtime.create_machine(Plain, name="EN-1"),
    ]
    made = [MachineId(0, "Plain"), MachineId(1, "Plain", "EN-1")]
    for kernel_id, plain_id in zip(built, made):
        assert kernel_id == plain_id and hash(kernel_id) == hash(plain_id)
        assert (str(kernel_id), repr(kernel_id)) == (str(plain_id), repr(plain_id))
        assert vars(kernel_id) == vars(plain_id)
        assert dataclasses.asdict(kernel_id) == dataclasses.asdict(plain_id)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(kernel_id, protocol))
            assert clone == kernel_id and vars(clone) == vars(kernel_id)
        renamed = dataclasses.replace(kernel_id, name="other")
        assert renamed == kernel_id and str(renamed) == f"other({kernel_id.value})"
        moved = dataclasses.replace(kernel_id, value=9)
        assert moved != kernel_id and hash(moved) == hash(9) and str(moved).endswith("(9)")
        with pytest.raises(dataclasses.FrozenInstanceError):
            kernel_id.value = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            del kernel_id.name
    assert built[0] < built[1] and sorted(reversed(built)) == built
    assert MachineId(value=2, type_name="Plain").name == ""
