"""State-DSL semantics: defer/ignore disciplines, the state stack, raised
events, and their interplay with the incrementally maintained enabled set."""

import re

import pytest

from repro.core import (
    Event,
    FrameworkError,
    Machine,
    Monitor,
    PCTStrategy,
    RandomStrategy,
    ReplayStrategy,
    RoundRobinStrategy,
    State,
    TestRuntime,
    TestingConfig,
    on_event,
)
from repro.core.declarations import DEFER, IGNORE, build_spec, resolve_state_name


class Ping(Event):
    pass


class Pong(Event):
    pass


class Nudge(Event):
    pass


class Noise(Event):
    pass


def make_runtime(strategy=None, **config_kwargs):
    config_kwargs.setdefault("max_steps", 200)
    config = TestingConfig(iterations=1, **config_kwargs)
    strategy = strategy or RoundRobinStrategy()
    strategy.prepare_iteration(0)
    return TestRuntime(strategy, config)


# ---------------------------------------------------------------------------
# declaration layer
# ---------------------------------------------------------------------------
class Door(Machine):
    class Closed(State, initial=True):
        deferred = (Pong,)
        ignored = (Noise,)

        @on_event(Ping)
        def open_up(self, event):
            self.goto(Door.Open)

    class Open(State):
        @on_event(Pong)
        def blow_shut(self, event):
            self.goto(Door.Closed)


def test_spec_collects_dsl_states():
    spec = Door.spec()
    assert spec.initial_state == "Closed"
    assert spec.states == {"Closed", "Open"}
    assert spec.deferred == {"Closed": frozenset({Pong})}
    assert spec.ignored == {"Closed": frozenset({Noise})}
    assert spec.context_for(("Closed",)).handler_only(Ping) is not None
    assert spec.context_for(("Open",)).handler_only(Pong) is not None
    assert spec.context_for(("Open",)).handler_only(Ping) is None


def test_context_classification_and_plain_flag():
    spec = Door.spec()
    closed = spec.context_for(("Closed",))
    assert closed.resolve(Pong) is DEFER
    assert closed.resolve(Noise) is IGNORE
    assert closed.dequeuable(Ping) and not closed.dequeuable(Pong)
    assert not closed.plain
    open_ctx = spec.context_for(("Open",))
    assert open_ctx.plain
    assert open_ctx.resolve(Ping) is None  # unhandled, still dequeuable
    assert open_ctx.dequeuable(Ping)


def test_state_name_override_and_resolution():
    class Named(Machine):
        class First(State, initial=True, name="first"):
            pass

    assert Named.spec().initial_state == "first"
    assert resolve_state_name(Named.First) == "first"
    assert resolve_state_name("x") == "x"
    with pytest.raises(TypeError):
        resolve_state_name(42)


def test_state_is_never_instantiated():
    with pytest.raises(TypeError):
        Door.Closed()


def test_conflicting_disciplines_raise():
    with pytest.raises(TypeError, match="deferred and ignored"):
        class Conflicted(Machine):
            class S(State, initial=True):
                deferred = (Ping,)
                ignored = (Ping,)

        build_spec(Conflicted)


def test_handler_for_deferred_event_raises():
    with pytest.raises(TypeError, match="deferred and handled"):
        class Contradictory(Machine):
            class S(State, initial=True):
                deferred = (Ping,)

                @on_event(Ping)
                def handle(self, event):
                    pass

        build_spec(Contradictory)


def test_two_initial_states_raise():
    with pytest.raises(TypeError, match="more than one initial state"):
        class Twice(Machine):
            class A(State, initial=True):
                pass

            class B(State, initial=True):
                pass

        build_spec(Twice)


def test_duplicate_state_names_raise():
    with pytest.raises(TypeError, match="duplicate state name"):
        class Clash(Machine):
            class A(State, initial=True, name="same"):
                pass

            class B(State, name="same"):
                pass

        build_spec(Clash)


def test_subclass_spec_is_not_polluted_by_hoisted_handlers():
    class Child(Door):
        pass

    spec = build_spec(Child)
    # The hoisted Door handlers must stay state-scoped in the child's spec,
    # not resurface as wildcard handlers.
    assert spec.context_for(("Open",)).handler_only(Ping) is None
    assert spec.initial_state == "Closed"


def test_spec_contents_do_not_depend_on_spec_build_order():
    """Regression: building the subclass spec *first* used to re-register the
    base's freshly hoisted state handlers as wildcard handlers."""

    class FreshBase(Machine):
        class Work(State, initial=True):
            @on_event(Ping)
            def handle(self, event):
                pass

    class FreshDerived(FreshBase):
        pass

    derived_spec = build_spec(FreshDerived)  # before the base's spec exists
    base_spec = build_spec(FreshBase)
    for spec in (derived_spec, base_spec):
        assert spec.context_for(("Work",)).handler_only(Ping) is not None
        # Ping must stay scoped to Work, not leak into every state.
        assert spec.context_for(("Elsewhere",)).handler_only(Ping) is None


def test_plain_helper_methods_inside_state_bodies_are_rejected():
    with pytest.raises(TypeError, match="helper methods"):
        class WithHelper(Machine):
            class S(State, initial=True):
                def helper(self):
                    pass

        build_spec(WithHelper)


def test_nested_states_inside_state_bodies_are_rejected():
    with pytest.raises(TypeError, match="states do not nest"):
        class Nested(Machine):
            class Outer(State, initial=True):
                class Inner(State):
                    pass

        build_spec(Nested)


def test_redeclared_state_deferring_an_inherited_handler_is_rejected():
    """A subclass redeclaring state S replaces S's disciplines but inherits
    the base S's handlers, so deferring what the base handles must conflict
    loudly, exactly like the same contradiction inside one State body."""

    class Base(Machine):
        class S(State, initial=True):
            @on_event(Ping)
            def h(self, event):
                pass

    class Child(Base):
        class S(State):
            deferred = (Ping,)

    with pytest.raises(
        TypeError, match="Child: Ping in state 'S' is both deferred and handled by _state_S_h"
    ):
        build_spec(Child)


def test_states_without_an_initial_one_are_rejected():
    """Regression: such a class used to start in the phantom state "init",
    so its first event was reported as an unhandled-event bug."""

    class Headless(Machine):
        class Work(State):
            @on_event(Ping)
            def handle(self, event):
                pass

    with pytest.raises(TypeError, match="Headless declares states .Work. but marks none"):
        build_spec(Headless)


def test_an_inherited_initial_state_counts():
    class Child(Door):
        class Ajar(State):
            pass

    assert build_spec(Child).initial_state == "Closed"


def test_a_class_without_states_starts_in_the_implicit_state():
    class Stateless(Machine):
        @on_event(Ping)
        def handle(self, event):
            pass

    spec = build_spec(Stateless)
    assert spec.initial_state == "init"
    assert spec.states == {"init"}


@pytest.mark.parametrize(
    "attr, value, replacement",
    [
        ("initial_state", "listening", "class X(State, initial=True)"),
        ("hot_states", frozenset({"waiting"}), "class X(State, hot=True)"),
    ],
)
@pytest.mark.parametrize("base", [Machine, Monitor])
def test_left_over_string_state_attributes_are_rejected(base, attr, value, replacement):
    cls = type("LeftOver", (base,), {attr: value})
    with pytest.raises(TypeError, match=rf"LeftOver\.{attr}.*{re.escape(replacement)}"):
        cls.spec()


def test_subclass_overrides_state_disciplines():
    class RelaxedDoor(Door):
        class Closed(State, initial=True):
            pass

    spec = build_spec(RelaxedDoor)
    assert spec.deferred == {}
    assert spec.ignored == {}


# ---------------------------------------------------------------------------
# defer/ignore semantics and the incremental enabled set
# ---------------------------------------------------------------------------
class DeferTarget(Machine):
    def on_start(self):
        self.handled = []

    class Waiting(State, initial=True):
        deferred = (Ping,)

        @on_event(Nudge)
        def advance(self):
            self.goto(DeferTarget.Open)

    class Open(State):
        @on_event(Ping)
        def got_ping(self, event):
            self.handled.append("ping")


def test_deferred_only_inbox_is_not_enabled_and_reenables_on_transition():
    runtime = make_runtime()
    runtime.run(lambda rt: rt.create_machine(DeferTarget, name="T"))
    target = runtime.machines_of_type(DeferTarget)[0]
    assert runtime.enabled_machine_ids == []

    runtime.send_event(target.id, Ping())
    # The inbox holds only a deferred event: the machine must not be runnable.
    assert runtime.enabled_machine_ids == []
    assert target._inbox

    runtime.send_event(target.id, Nudge())
    # Nudge is dequeuable, so the machine re-enters the enabled set.
    assert runtime.enabled_machine_ids == [target.id]

    runtime._execution_loop()
    # Nudge transitioned to Open, un-deferring Ping, which was then handled.
    assert target.handled == ["ping"]
    assert target.current_state == "Open"
    assert runtime.enabled_machine_ids == []


def test_deferred_events_keep_fifo_order_across_the_transition():
    class Recorder(Machine):
        def on_start(self):
            self.values = []

        class Hold(State, initial=True):
            deferred = (Ping,)

            @on_event(Nudge)
            def advance(self):
                self.goto(Recorder.Play)

        class Play(State):
            @on_event(Ping)
            def record(self, event):
                self.values.append(event.value)

    class Tagged(Ping):
        def __init__(self, value):
            self.value = value

    runtime = make_runtime()
    runtime.run(lambda rt: rt.create_machine(Recorder))
    recorder = runtime.machines_of_type(Recorder)[0]
    for value in (1, 2, 3):
        runtime.send_event(recorder.id, Tagged(value))
    runtime.send_event(recorder.id, Nudge())
    runtime._execution_loop()
    assert recorder.values == [1, 2, 3]


class IgnoreTarget(Machine):
    def on_start(self):
        self.handled = []

    class Init(State, initial=True):
        ignored = (Noise,)

        @on_event(Ping)
        def got_ping(self, event):
            self.handled.append("ping")


def test_ignored_only_inbox_is_not_enabled_and_is_benign_at_quiescence():
    runtime = make_runtime(report_deadlocks=True)

    def entry(rt):
        target = rt.create_machine(IgnoreTarget)
        rt.send_event(target, Noise())

    # Ignored-only backlog: quiescent, and *not* a deadlock.
    assert runtime.run(entry) is None
    target = runtime.machines_of_type(IgnoreTarget)[0]
    assert runtime.enabled_machine_ids == []
    assert list(target._inbox)  # the ignored event just sits there


def test_ignored_events_are_dropped_while_scanning_to_a_dequeuable_event():
    runtime = make_runtime()
    runtime.run(lambda rt: rt.create_machine(IgnoreTarget))
    target = runtime.machines_of_type(IgnoreTarget)[0]
    runtime.send_event(target.id, Noise())
    runtime.send_event(target.id, Noise())
    runtime.send_event(target.id, Ping())
    runtime._execution_loop()
    assert target.handled == ["ping"]
    assert not target._inbox  # the leading ignored events were dropped


def test_deferred_backlog_at_quiescence_is_a_deadlock():
    runtime = make_runtime(report_deadlocks=True)

    def entry(rt):
        target = rt.create_machine(DeferTarget, name="T")
        rt.send_event(target, Ping())

    bug = runtime.run(entry)
    assert bug is not None and bug.kind == "deadlock"
    assert "holds deferred events" in bug.message


# ---------------------------------------------------------------------------
# push/pop state stack
# ---------------------------------------------------------------------------
class Stacker(Machine):
    def on_start(self):
        self.trail = []

    class Base(State, initial=True):
        @on_event(Ping)
        def base_ping(self, event):
            self.trail.append("base-ping")

        @on_event(Nudge)
        def push_up(self):
            self.push_state(Stacker.Pushed)

        def on_entry(self):
            self.trail.append("base-entry")

        def on_exit(self):
            self.trail.append("base-exit")

    class Pushed(State):
        deferred = (Pong,)

        @on_event(Nudge)
        def pop_down(self):
            self.pop_state()

        def on_entry(self):
            self.trail.append("pushed-entry")

        def on_exit(self):
            self.trail.append("pushed-exit")


def test_push_runs_entry_without_exiting_the_paused_state():
    runtime = make_runtime()
    runtime.run(lambda rt: rt.create_machine(Stacker))
    machine = runtime.machines_of_type(Stacker)[0]
    runtime.send_event(machine.id, Nudge())
    runtime._execution_loop()
    assert machine.state_stack == ("Base", "Pushed")
    assert machine.current_state == "Pushed"
    # push: pushed state's entry ran, paused state's exit did NOT.
    assert machine.trail == ["base-entry", "pushed-entry"]


def test_pushed_state_inherits_handlers_and_disciplines_from_the_stack():
    runtime = make_runtime()
    runtime.run(lambda rt: rt.create_machine(Stacker))
    machine = runtime.machines_of_type(Stacker)[0]
    runtime.send_event(machine.id, Nudge())  # push
    runtime._execution_loop()
    # Ping has no handler in Pushed: Base's handler is inherited down the stack.
    runtime.send_event(machine.id, Ping())
    runtime._execution_loop()
    assert machine.trail == ["base-entry", "pushed-entry", "base-ping"]
    # Pong is deferred by the *top* state even though Base says nothing.
    runtime.send_event(machine.id, Pong())
    assert runtime.enabled_machine_ids == []


def test_pop_runs_exit_and_returns_without_reentering():
    runtime = make_runtime()
    runtime.run(lambda rt: rt.create_machine(Stacker))
    machine = runtime.machines_of_type(Stacker)[0]
    runtime.send_event(machine.id, Nudge())  # push
    runtime.send_event(machine.id, Nudge())  # pop (Pushed handles Nudge)
    runtime._execution_loop()
    assert machine.state_stack == ("Base",)
    # pop: popped state's exit ran; Base's entry did NOT re-run.
    assert machine.trail == ["base-entry", "pushed-entry", "pushed-exit"]


def test_initial_state_entry_action_runs_at_machine_start():
    class Starter(Machine):
        def on_start(self, value):
            self.trail = [f"start-{value}"]

        class Home(State, initial=True):
            def on_entry(self):
                # on_start already ran: its fields are available here.
                self.trail.append("home-entry")

    runtime = make_runtime()
    runtime.run(lambda rt: rt.create_machine(Starter, 7))
    machine = runtime.machines_of_type(Starter)[0]
    assert machine.trail == ["start-7", "home-entry"]


def test_initial_entry_is_skipped_when_on_start_transitions_away():
    class Mover(Machine):
        def on_start(self):
            self.trail = []
            self.goto(Mover.Away)

        class Home(State, initial=True):
            def on_entry(self):
                self.trail.append("home-entry")

        class Away(State):
            def on_entry(self):
                self.trail.append("away-entry")

    runtime = make_runtime()
    runtime.run(lambda rt: rt.create_machine(Mover))
    machine = runtime.machines_of_type(Mover)[0]
    # Only the goto target's entry ran; the abandoned initial state's didn't.
    assert machine.trail == ["away-entry"]


def test_initial_entry_runs_once_when_on_start_leaves_and_returns():
    class Bouncer(Machine):
        def on_start(self):
            self.trail = []
            self.goto(Bouncer.Away)
            self.goto(Bouncer.Home)

        class Home(State, initial=True):
            def on_entry(self):
                self.trail.append("home-entry")

        class Away(State):
            def on_entry(self):
                self.trail.append("away-entry")

    runtime = make_runtime()
    runtime.run(lambda rt: rt.create_machine(Bouncer))
    machine = runtime.machines_of_type(Bouncer)[0]
    # The goto back already ran Home's entry; start-up must not run it again.
    assert machine.trail == ["away-entry", "home-entry"]


def test_monitor_initial_entry_action_runs_at_registration():
    class Probe(Monitor):
        entered = False

        class Watch(State, initial=True):
            def on_entry(self):
                self.entered = True

    runtime = make_runtime()
    monitor = runtime.register_monitor(Probe)
    assert monitor.entered is True


def test_pop_on_the_bottom_state_is_a_framework_error():
    class Popper(Machine):
        class Only(State, initial=True):
            @on_event(Ping)
            def pop(self, event):
                self.pop_state()

    runtime = make_runtime()

    def entry(rt):
        machine = rt.create_machine(Popper)
        rt.send_event(machine, Ping())

    with pytest.raises(FrameworkError, match="pop_state on the bottom state"):
        runtime.run(entry)


def test_pop_reveals_previous_disciplines_and_undeferred_events_run():
    runtime = make_runtime()
    runtime.run(lambda rt: rt.create_machine(Stacker))
    machine = runtime.machines_of_type(Stacker)[0]
    runtime.send_event(machine.id, Nudge())  # push
    runtime._execution_loop()
    runtime.send_event(machine.id, Pong())  # deferred by Pushed
    assert runtime.enabled_machine_ids == []
    runtime.send_event(machine.id, Nudge())  # pop
    runtime._execution_loop()
    # After the pop, Pong is no longer deferred; Base has no handler for it,
    # so it is an unhandled-event bug — proving it became dequeuable.
    assert runtime.bug is not None and runtime.bug.kind == "unhandled-event"


# ---------------------------------------------------------------------------
# raised events
# ---------------------------------------------------------------------------
def test_raised_events_dispatch_before_the_inbox():
    class Raiser(Machine):
        def on_start(self):
            self.order = []

        class Init(State, initial=True):
            @on_event(Nudge)
            def trigger(self):
                self.raise_event(Pong())

            @on_event(Pong)
            def high(self, event):
                self.order.append("raised")

            @on_event(Ping)
            def low(self, event):
                self.order.append("inbox")

    runtime = make_runtime()
    runtime.run(lambda rt: rt.create_machine(Raiser))
    machine = runtime.machines_of_type(Raiser)[0]
    runtime.send_event(machine.id, Nudge())
    runtime.send_event(machine.id, Ping())
    runtime._execution_loop()
    # The raised Pong was queued after Ping was already in the inbox, yet it
    # dispatched first.
    assert machine.order == ["raised", "inbox"]


def test_raised_events_bypass_defer_disciplines():
    class RaiseThrough(Machine):
        def on_start(self):
            self.got = []

        @on_event(Pong)
        def wildcard_pong(self, event):
            self.got.append("pong")

        class Hold(State, initial=True):
            deferred = (Pong,)

            @on_event(Nudge)
            def trigger(self):
                self.raise_event(Pong())

    runtime = make_runtime()
    runtime.run(lambda rt: rt.create_machine(RaiseThrough))
    machine = runtime.machines_of_type(RaiseThrough)[0]
    runtime.send_event(machine.id, Pong())  # deferred: not runnable
    assert runtime.enabled_machine_ids == []
    runtime.send_event(machine.id, Nudge())
    runtime._execution_loop()
    # The raised Pong was handled (wildcard) despite the defer discipline;
    # the *sent* Pong stays deferred in the inbox.
    assert machine.got == ["pong"]
    assert list(machine._inbox)


def test_unhandled_raised_event_is_a_bug():
    class BadRaiser(Machine):
        class Init(State, initial=True):
            @on_event(Nudge)
            def trigger(self):
                self.raise_event(Pong())

    runtime = make_runtime()

    def entry(rt):
        machine = rt.create_machine(BadRaiser)
        rt.send_event(machine, Nudge())

    bug = runtime.run(entry)
    assert bug is not None and bug.kind == "unhandled-event"


def test_raise_into_receive_blocked_machine_waits_for_the_receive():
    """A raised event must not wake a machine blocked in Receive (raised
    events are dispatched, never received) — and must drain afterwards."""
    from repro.core import Receive

    class Blocker(Machine):
        def on_start(self):
            self.order = []
            got = yield Receive(Ping)
            self.order.append("received")

        class Init(State, initial=True):
            @on_event(Pong)
            def raised_pong(self, event):
                self.order.append("raised")

    runtime = make_runtime()
    runtime.run(lambda rt: rt.create_machine(Blocker))
    machine = runtime.machines_of_type(Blocker)[0]
    assert machine._pending_receive is not None

    machine.raise_event(Pong())
    # Still blocked: the raised event cannot satisfy the receive.
    assert runtime.enabled_machine_ids == []

    runtime.send_event(machine.id, Ping())
    runtime._execution_loop()
    # The receive completed first, then the raised event dispatched.
    assert machine.order == ["received", "raised"]


def test_raise_event_rejects_non_events():
    class Misuser(Machine):
        class Init(State, initial=True):
            @on_event(Nudge)
            def trigger(self):
                self.raise_event("nope")

    runtime = make_runtime()

    def entry(rt):
        machine = rt.create_machine(Misuser)
        rt.send_event(machine, Nudge())

    with pytest.raises(FrameworkError, match="raise_event expects an Event"):
        runtime.run(entry)


# ---------------------------------------------------------------------------
# goto by State class; DSL monitors
# ---------------------------------------------------------------------------
def test_goto_accepts_state_classes():
    runtime = make_runtime()
    runtime.run(lambda rt: rt.create_machine(Door))
    door = runtime.machines_of_type(Door)[0]
    runtime.send_event(door.id, Ping())
    runtime._execution_loop()
    assert door.current_state == "Open"


def test_monitor_ignored_notifications_are_dropped():
    class Selective(Monitor):
        class Init(State, initial=True):
            ignored = (Noise,)

            @on_event(Ping)
            def on_ping(self, event):
                self.seen = True

    runtime = make_runtime()
    monitor = runtime.register_monitor(Selective)
    monitor.handle(Noise())  # dropped silently, not a FrameworkError
    monitor.handle(Ping())
    assert monitor.seen
    with pytest.raises(FrameworkError, match="no handler"):
        monitor.handle(Pong())


def test_monitor_deferred_declarations_are_rejected():
    class Deferring(Monitor):
        class Init(State, initial=True):
            deferred = (Ping,)

    with pytest.raises(TypeError, match="notified synchronously"):
        Deferring.spec()


def test_monitor_hot_states_via_dsl():
    class Watch(Monitor):
        class Cold(State, initial=True):
            @on_event(Ping)
            def heat(self, event):
                self.goto(Watch.Hot)

        class Hot(State, hot=True):
            @on_event(Pong)
            def cool(self, event):
                self.goto(Watch.Cold)

    assert Watch.is_liveness_monitor()
    runtime = make_runtime()
    monitor = runtime.register_monitor(Watch)
    assert monitor.current_state == "Cold" and not monitor.is_hot
    monitor.handle(Ping())
    assert monitor.current_state == "Hot" and monitor.is_hot
    monitor.handle(Pong())
    assert not monitor.is_hot


# ---------------------------------------------------------------------------
# Table 1 statistics over the new spec
# ---------------------------------------------------------------------------
def test_statistics_count_states_defers_and_ignores():
    from repro.core.statistics import (
        count_deferred_events,
        count_ignored_events,
        count_states,
    )
    from repro.examplesys.harness.flushstore import FlushStoreMachine

    classes = [FlushStoreMachine, Door, Stacker]
    assert count_states(classes) == 2 + 2 + 2
    # Flushing defers Write; Door.Closed defers Pong; Stacker.Pushed defers Pong.
    assert count_deferred_events(classes) == 3
    # Flushing ignores FlushRequest; Door.Closed ignores Noise.
    assert count_ignored_events(classes) == 2


# ---------------------------------------------------------------------------
# enabled-set exactness under random, PCT and strict replay (satellite 3)
# ---------------------------------------------------------------------------
def _checking_strategy(base_cls, *args, **kwargs):
    """A strategy that asserts enabled-set exactness at every choice."""

    class Checking(base_cls):
        runtime = None

        def next_machine(self, enabled, step):
            rt = self.runtime
            expected = [m.id for m in rt._machines.values() if m._has_work()]
            assert sorted(enabled, key=lambda i: i.value) == sorted(
                expected, key=lambda i: i.value
            ), f"enabled snapshot diverged at step {step}"
            for machine in rt._machines.values():
                assert machine._enabled == machine._has_work()
            return super().next_machine(enabled, step)

    return Checking(*args, **kwargs)


def _wedge_entry(rt):
    from repro.examplesys.harness.flushstore import (
        FlushSafetyMonitor,
        FlushStoreMachine,
        WedgingClientMachine,
    )

    rt.register_monitor(FlushSafetyMonitor)
    store = rt.create_machine(FlushStoreMachine, True, name="Store")
    rt.create_machine(WedgingClientMachine, store, name="Client")


@pytest.mark.parametrize("base_cls", [RandomStrategy, PCTStrategy])
def test_enabled_set_stays_exact_with_disciplines(base_cls):
    for iteration in range(10):
        strategy = _checking_strategy(base_cls, seed=iteration)
        strategy.prepare_iteration(iteration)
        runtime = TestRuntime(strategy, TestingConfig(max_steps=300))
        strategy.runtime = runtime
        bug = runtime.run(_wedge_entry)
        # The wedge is deterministic: the store always ends up holding a
        # deferred Write, whatever the schedule.
        assert bug is not None and bug.kind == "deadlock"


def test_strict_replay_reproduces_defer_wedge_bytewise():
    strategy = RandomStrategy(seed=11)
    strategy.prepare_iteration(0)
    runtime = TestRuntime(strategy, TestingConfig(max_steps=300))
    bug = runtime.run(_wedge_entry)
    assert bug is not None and bug.kind == "deadlock"

    replay = _checking_strategy(ReplayStrategy, bug.trace)
    replay.prepare_iteration(0)
    replay_runtime = TestRuntime(replay, TestingConfig(max_steps=300))
    replay.runtime = replay_runtime
    replayed = replay_runtime.run(_wedge_entry)
    assert replayed is not None and replayed.kind == "deadlock"
    assert replay_runtime.trace.steps == bug.trace.steps
    assert replay_runtime.trace.states == bug.trace.states
