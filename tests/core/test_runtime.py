"""Behavioural tests of the serialized runtime: dispatch, receive, halting,
monitors, liveness, deadlock detection and unhandled events."""

import pytest

from repro.core import (
    Event,
    FrameworkError,
    Halt,
    Machine,
    Monitor,
    Receive,
    RoundRobinStrategy,
    State,
    TestRuntime,
    TestingConfig,
    on_event,
)


class Ping(Event):
    def __init__(self, sender):
        self.sender = sender


class Pong(Event):
    pass


class Note(Event):
    def __init__(self, value=0):
        self.value = value


def make_runtime(**config_kwargs):
    config = TestingConfig(iterations=1, **config_kwargs)
    strategy = RoundRobinStrategy()
    strategy.prepare_iteration(0)
    return TestRuntime(strategy, config)


class Echo(Machine):
    @on_event(Ping)
    def reply(self, event):
        self.send(event.sender, Pong())


class Caller(Machine):
    def on_start(self, echo):
        self.got_pong = False
        self.send(echo, Ping(self.id))
        yield Receive(Pong)
        self.got_pong = True


def test_request_response_with_receive():
    runtime = make_runtime(max_steps=50)

    def entry(rt):
        echo = rt.create_machine(Echo)
        rt.create_machine(Caller, echo)

    assert runtime.run(entry) is None
    caller = runtime.machines_of_type(Caller)[0]
    assert caller.got_pong is True
    assert runtime.termination_reason == "quiescence"


def test_unhandled_event_is_a_bug():
    class Silent(Machine):
        pass

    runtime = make_runtime(max_steps=20)

    def entry(rt):
        target = rt.create_machine(Silent)
        rt.send_event(target, Note())

    bug = runtime.run(entry)
    assert bug is not None and bug.kind == "unhandled-event"


def test_unhandled_event_can_be_ignored():
    class Tolerant(Machine):
        ignore_unhandled_events = True

    runtime = make_runtime(max_steps=20)

    def entry(rt):
        target = rt.create_machine(Tolerant)
        rt.send_event(target, Note())

    assert runtime.run(entry) is None


def test_halt_event_stops_machine_and_drops_messages():
    runtime = make_runtime(max_steps=30)

    def entry(rt):
        echo = rt.create_machine(Echo)
        rt.send_event(echo, Halt())
        rt.send_event(echo, Ping(echo))

    assert runtime.run(entry) is None
    echo = runtime.machines_of_type(Echo)[0]
    assert echo.is_halted


def test_exception_in_handler_is_reported_as_bug():
    class Crasher(Machine):
        @on_event(Note)
        def boom(self, event):
            raise RuntimeError("kaboom")

    runtime = make_runtime(max_steps=20)

    def entry(rt):
        target = rt.create_machine(Crasher)
        rt.send_event(target, Note())

    bug = runtime.run(entry)
    assert bug is not None and bug.kind == "exception"
    assert "kaboom" in bug.message


def test_assertion_failure_is_safety_bug():
    class Checker(Machine):
        @on_event(Note)
        def check(self, event):
            self.assert_that(event.value > 0, "value must be positive")

    runtime = make_runtime(max_steps=20)

    def entry(rt):
        target = rt.create_machine(Checker)
        rt.send_event(target, Note(0))

    bug = runtime.run(entry)
    assert bug is not None and bug.kind == "safety"


def test_state_transitions_run_entry_and_exit_actions():
    class Stateful(Machine):
        class Closed(State, initial=True, name="closed"):
            def on_exit(self):
                self.events.append("exit-closed")

        class Open(State, name="open"):
            def on_entry(self):
                self.events.append("enter-open")

        def on_start(self):
            self.events = []
            self.goto("open")

    runtime = make_runtime(max_steps=10)
    runtime.run(lambda rt: rt.create_machine(Stateful))
    machine = runtime.machines_of_type(Stateful)[0]
    assert machine.current_state == "open"
    assert machine.events == ["exit-closed", "enter-open"]


def test_monitor_liveness_violation_at_bound():
    class Progress(Event):
        pass

    class LivenessMonitor(Monitor):
        class Hot(State, initial=True, hot=True, name="hot"):
            pass

        @on_event(Progress)
        def progressed(self):
            self.goto("cold")

    class Spinner(Machine):
        @on_event(Note)
        def spin(self):
            self.send(self.id, Note())

    runtime = make_runtime(max_steps=25)

    def entry(rt):
        rt.register_monitor(LivenessMonitor)
        spinner = rt.create_machine(Spinner)
        rt.send_event(spinner, Note())

    bug = runtime.run(entry)
    assert bug is not None and bug.kind == "liveness"


def test_monitor_goes_cold_no_violation():
    class Progress(Event):
        pass

    class LivenessMonitor(Monitor):
        class Hot(State, initial=True, hot=True, name="hot"):
            pass

        @on_event(Progress)
        def progressed(self):
            self.goto("cold")

    class Worker(Machine):
        @on_event(Note)
        def work(self):
            self.notify_monitor(LivenessMonitor, Progress())

    runtime = make_runtime(max_steps=25)

    def entry(rt):
        rt.register_monitor(LivenessMonitor)
        worker = rt.create_machine(Worker)
        rt.send_event(worker, Note())

    assert runtime.run(entry) is None


def test_deadlock_detection_for_blocked_receive():
    class Waiter(Machine):
        def on_start(self):
            yield Receive(Pong)

    runtime = make_runtime(max_steps=20)
    bug = runtime.run(lambda rt: rt.create_machine(Waiter))
    assert bug is not None and bug.kind == "deadlock"


def test_send_to_unknown_machine_is_framework_error():
    from repro.core import MachineId

    runtime = make_runtime(max_steps=5)
    with pytest.raises(FrameworkError):
        runtime.send_event(MachineId(99, "Ghost"), Note())


def test_notify_unregistered_monitor_is_noop():
    class SomeMonitor(Monitor):
        @on_event(Note)
        def handle(self, event):
            pass

    class Notifier(Machine):
        @on_event(Note)
        def notify(self, event):
            self.notify_monitor(SomeMonitor, Note())

    runtime = make_runtime(max_steps=20)

    def entry(rt):
        target = rt.create_machine(Notifier)
        rt.send_event(target, Note())

    assert runtime.run(entry) is None


def test_count_pending_events():
    runtime = make_runtime(max_steps=5)

    class Sink(Machine):
        ignore_unhandled_events = True

    def entry(rt):
        sink = rt.create_machine(Sink)
        rt.send_event(sink, Note(1))
        rt.send_event(sink, Note(2))
        entry.sink = sink

    runtime.run(entry)
    # After the run the inbox has been drained; check the helper on a fresh runtime.
    runtime2 = make_runtime(max_steps=5)
    sink_id = runtime2.create_machine(Sink)
    runtime2.send_event(sink_id, Note(1))
    runtime2.send_event(sink_id, Note(2))
    assert runtime2.count_pending_events(sink_id, Note) == 2
    assert runtime2.count_pending_events(sink_id, Note, lambda e: e.value == 1) == 1


class LoudNote(Note):
    """A Note subclass: queued under its own exact type in the counts."""


class Sink(Machine):
    ignore_unhandled_events = True


def _sink_with(*events):
    runtime = make_runtime(max_steps=5)
    sink = runtime.create_machine(Sink)
    for event in events:
        runtime.send_event(sink, event)
    return runtime, sink


def _pending(runtime, target, event_type, predicate=None):
    """Both queries, which must agree on existence."""
    count = runtime.count_pending_events(target, event_type, predicate)
    assert runtime.has_pending_event(target, event_type, predicate) == (count > 0)
    return count


def test_pending_query_finds_a_subclass_when_the_exact_type_is_absent():
    runtime, sink = _sink_with(LoudNote(1), Ping(None))
    assert _pending(runtime, sink, Note) == 1
    assert _pending(runtime, sink, Note, lambda e: e.value == 1) == 1
    assert _pending(runtime, sink, Pong) == 0
    assert _pending(runtime, sink, Pong, lambda e: True) == 0


def test_pending_query_counts_exact_type_and_subclass_together():
    runtime, sink = _sink_with(Note(1), LoudNote(1), LoudNote(2))
    assert _pending(runtime, sink, Note) == 3
    assert _pending(runtime, sink, Note, lambda e: e.value == 1) == 2
    assert _pending(runtime, sink, LoudNote) == 2


def test_pending_query_predicate_rejecting_everything():
    runtime, sink = _sink_with(Note(1), LoudNote(2))
    seen = []
    assert _pending(runtime, sink, Note, lambda e: seen.append(e.value)) == 0
    assert seen == [1, 2, 1, 2]  # each query scanned the whole inbox once


def test_pending_query_on_halted_and_unknown_targets():
    runtime, sink = _sink_with(Note(1))
    other = make_runtime()
    for _ in range(3):
        stranger = other.create_machine(Sink)
    assert _pending(runtime, stranger, Note) == 0
    assert _pending(runtime, stranger, Note, lambda e: True) == 0
    runtime.send_event(sink, Halt())
    runtime.run(lambda rt: None)
    assert runtime.machine_instance(sink).is_halted
    assert _pending(runtime, sink, Note) == 0
    assert _pending(runtime, sink, Event, lambda e: True) == 0


def test_pending_query_from_inside_a_handler_of_the_target():
    class Introspector(Machine):
        @on_event(Note)
        def on_note(self, event):
            # The event being handled has left the inbox; the rest has not.
            self.seen.append((
                self.count_pending(self.id, Note),
                self.count_pending(self.id, Note, lambda e: e.value > event.value),
                self._runtime.has_pending_event(self.id, LoudNote),
            ))

        def on_start(self):
            self.seen = []

    runtime = make_runtime(max_steps=10)

    def entry(rt):
        target = rt.create_machine(Introspector)
        for event in (Note(1), LoudNote(3), Note(2)):
            rt.send_event(target, event)

    assert runtime.run(entry) is None
    assert runtime.machines_of_type(Introspector)[0].seen == [
        (2, 2, True), (1, 0, False), (0, 0, False),
    ]


def test_pause_yield_keeps_machine_runnable():
    class Stepper(Machine):
        def on_start(self, steps):
            self.progress = 0
            for _ in range(steps):
                self.progress += 1
                yield

    runtime = make_runtime(max_steps=50)
    runtime.run(lambda rt: rt.create_machine(Stepper, 5))
    assert runtime.machines_of_type(Stepper)[0].progress == 5
