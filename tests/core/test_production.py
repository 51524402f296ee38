"""Tests for the concurrent :class:`ProductionRuntime`.

The contract under test is the kernel/controller split's payoff: the same
machine programs the testing controller explores run unmodified on real
concurrency — one run queue drained by one pump, thread-safe external sends,
locked monitors, real randomness and wall-clock timers — with the same
specification checks (safety assertions, liveness-at-shutdown, deadlocks)
still enforced.
"""

import threading
import time

import pytest

from repro.core import (
    Event,
    Machine,
    Monitor,
    ProductionRuntime,
    Receive,
    State,
    TestingConfig,
    TimerMachine,
    TimerTick,
    on_event,
    run_test,
)
from repro.core.errors import FrameworkError
from repro.examplesys.harness.service import (
    LoadClient,
    ServiceFrontEnd,
    build_service_test,
)


# ---------------------------------------------------------------------------
# soak: the examplesys service under concurrent load
# ---------------------------------------------------------------------------
def test_service_soak_concurrent_clients_clean():
    """8 concurrent clients drive the service with zero monitor violations."""
    runtime = ProductionRuntime(tick_interval=0.002)
    bug = runtime.run(build_service_test(num_clients=8, num_requests=40), timeout=120)
    assert bug is None, f"production soak found: {bug}"
    # Genuine concurrency: at least 8 machines dispatched events beyond
    # their StartEvent (host, front end, nodes and clients all trade real
    # traffic; a bare "dispatched anything" tally would be vacuous since
    # every machine dispatches its start).
    assert runtime.active_machine_count() >= 8
    clients = runtime.machines_of_type(LoadClient)
    assert len(clients) == 8
    assert all(len(client.acked) == 40 for client in clients)
    frontend = runtime.machines_of_type(ServiceFrontEnd)[0]
    assert frontend.completed == 8 * 40
    assert runtime.step_count > 8 * 40  # every request costs several dispatches


def test_same_service_harness_runs_under_the_testing_runtime():
    """The identical harness classes stay clean under systematic testing."""
    report = run_test(
        build_service_test(),
        TestingConfig(iterations=25, max_steps=3000, seed=11, strategy="random"),
    )
    assert report.bugs == []
    assert report.iterations_executed == 25


# ---------------------------------------------------------------------------
# thread-safe external sends
# ---------------------------------------------------------------------------
class _Work(Event):
    def __init__(self, value):
        self.value = value


class _Collector(Machine):
    def on_start(self):
        self.seen = []

    @on_event(_Work)
    def on_work(self, event):
        self.seen.append(event.value)


def test_post_event_is_thread_safe():
    ids = {}

    def entry(runtime):
        ids["collector"] = runtime.create_machine(_Collector, name="Collector")

    runtime = ProductionRuntime()
    runtime.start(entry)

    def pump(thread_index):
        for i in range(200):
            runtime.post_event(ids["collector"], _Work((thread_index, i)))

    threads = [threading.Thread(target=pump, args=(t,)) for t in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert runtime.join(timeout=30), "system should quiesce after the load drains"
    bug = runtime.shutdown()
    assert bug is None
    collector = runtime.machines_of_type(_Collector)[0]
    assert len(collector.seen) == 4 * 200
    # Per-thread FIFO ordering survives the hop onto the event loop.
    for t in range(4):
        per_thread = [i for (who, i) in collector.seen if who == t]
        assert per_thread == sorted(per_thread)


# ---------------------------------------------------------------------------
# specification checks still fire in production mode
# ---------------------------------------------------------------------------
class _Trigger(Event):
    pass


class _Asserter(Machine):
    @on_event(_Trigger)
    def boom(self):
        self.assert_that(False, "production assertion")


def test_safety_assertion_reported_as_bug():
    def entry(runtime):
        target = runtime.create_machine(_Asserter)
        runtime.send_event(target, _Trigger())

    bug = ProductionRuntime().run(entry, timeout=30)
    assert bug is not None
    assert bug.kind == "safety"
    assert "production assertion" in bug.message
    assert bug.log, "production bugs carry the materialized execution log"


class _BadEntryMonitor(Monitor):
    class Bad(State, initial=True):
        def on_entry(self):
            self.assert_that(False, "entry boom")


def test_bug_raised_by_entry_point_is_recorded_not_raised():
    """Same contract as TestRuntime.run: entry-time violations are bugs."""

    def entry(runtime):
        runtime.register_monitor(_BadEntryMonitor)

    bug = ProductionRuntime().run(entry, timeout=10)
    assert bug is not None
    assert bug.kind == "safety"
    assert "entry boom" in bug.message


class _NotifyPing(Event):
    pass


class _HotMonitor(Monitor):
    class Waiting(State, initial=True, hot=True):
        @on_event(_NotifyPing)
        def never(self):
            pass


class _IdleStarter(Machine):
    def on_start(self):
        pass


def test_hot_liveness_monitor_reported_at_shutdown():
    def entry(runtime):
        runtime.register_monitor(_HotMonitor)
        runtime.create_machine(_IdleStarter)

    bug = ProductionRuntime().run(entry, timeout=30)
    assert bug is not None
    assert bug.kind == "liveness"
    assert "_HotMonitor" in bug.message


class _NeverSent(Event):
    pass


class _ForeverBlocked(Machine):
    def on_start(self):
        yield Receive(_NeverSent)


def test_blocked_receive_reported_as_deadlock_at_quiescence():
    def entry(runtime):
        runtime.create_machine(_ForeverBlocked)

    bug = ProductionRuntime().run(entry, timeout=30)
    assert bug is not None
    assert bug.kind == "deadlock"
    assert "blocked in receive" in bug.message


class _Crasher(Machine):
    @on_event(_Trigger)
    def die(self):
        raise RuntimeError("handler exploded")


def test_unexpected_exception_reported_as_bug():
    def entry(runtime):
        target = runtime.create_machine(_Crasher)
        runtime.send_event(target, _Trigger())

    bug = ProductionRuntime().run(entry, timeout=30)
    assert bug is not None
    assert bug.kind == "exception"
    assert "handler exploded" in bug.message


# ---------------------------------------------------------------------------
# wall-clock timers
# ---------------------------------------------------------------------------
class _TickCounter(Machine):
    def on_start(self, max_ticks):
        self.ticks = 0
        self.timer = self.create(
            TimerMachine, self.id, always_fire=True, max_ticks=max_ticks
        )

    @on_event(TimerTick)
    def on_tick(self):
        self.ticks += 1


def test_wall_clock_timer_delivers_real_ticks_and_honors_max_ticks():
    def entry(runtime):
        runtime.create_machine(_TickCounter, 5)

    runtime = ProductionRuntime(tick_interval=0.001)
    bug = runtime.run(entry, timeout=30)
    assert bug is None
    counter = runtime.machines_of_type(_TickCounter)[0]
    # The timer task ends after max_ticks rounds, which is what lets the
    # system quiesce at all; at least one real tick must have landed and
    # the bound must hold.
    assert 1 <= counter.ticks <= 5


# ---------------------------------------------------------------------------
# run queue + pump: interleaving, FIFO, fairness
# ---------------------------------------------------------------------------
class _Recorder(Machine):
    """Appends ``(own name, payload)`` to a list shared through on_start."""

    def on_start(self, order):
        self.order = order
        order.append((self.id.name, "start"))

    @on_event(_Work)
    def on_work(self, event):
        self.order.append((self.id.name, event.value))


def test_preloaded_machines_dispatch_alternately_not_in_bursts():
    """One event per machine per turn, across pump-slice boundaries too."""
    order, count = [], 100  # 202 dispatches: several 64-event slices

    def entry(runtime):
        a = runtime.create_machine(_Recorder, order, name="A")
        b = runtime.create_machine(_Recorder, order, name="B")
        for target in (a, b):
            for i in range(count):
                runtime.send_event(target, _Work(i))

    runtime = ProductionRuntime()
    assert runtime.run(entry, timeout=30) is None
    expected = [(name, step) for step in ["start", *range(count)] for name in ("A", "B")]
    assert order == expected
    assert runtime.loop_turns >= 2 and runtime.step_count == 2 * (count + 1)


class _Go(Event):
    pass


class _Sender(Machine):
    """Sends ``count`` numbered events to ``sink``, one per own dispatch."""

    def on_start(self, sink, sent, count):
        self.sink, self.sent, self.left = sink, sent, count
        self.send(self.id, _Go())

    @on_event(_Go)
    def go(self):
        value = (self.id.name, self.left)
        self.sent.append(value)
        self.send(self.sink, _Work(value))
        self.left -= 1
        if self.left:
            self.send(self.id, _Go())


class _SelfSendingSink(Machine):
    def on_start(self, sent):
        self.sent, self.seen = sent, []

    @on_event(_Work)
    def on_work(self, event):
        self.seen.append(event.value)
        if event.value[0] != "self" and event.value[1] % 3 == 0:
            value = ("self", len(self.seen))
            self.sent.append(value)
            self.send(self.id, _Work(value))


def test_per_machine_fifo_with_two_senders_and_self_sends():
    sent = []  # global enqueue order at the sink

    def entry(runtime):
        sink = runtime.create_machine(_SelfSendingSink, sent, name="Sink")
        runtime.create_machine(_Sender, sink, sent, 90, name="S1")
        runtime.create_machine(_Sender, sink, sent, 90, name="S2")

    runtime = ProductionRuntime()
    assert runtime.run(entry, timeout=30) is None
    sink = runtime.machines_of_type(_SelfSendingSink)[0]
    assert len(sink.seen) == 2 * 90 + 2 * 30
    assert sink.seen == sent, "dispatch order at a machine is its enqueue order"
    # The two senders really did interleave at the sink.
    assert {who for who, _ in sink.seen[:4]} >= {"S1", "S2"}


class _Spinner(Machine):
    """Always has work: every dispatch sends itself the next event."""

    def on_start(self):
        self.spins = 0
        self.send(self.id, _Go())

    @on_event(_Go)
    def spin(self):
        self.spins += 1
        self.send(self.id, _Go())


def test_forever_self_sender_starves_nobody():
    ids = {}

    def entry(runtime):
        runtime.create_machine(_Spinner)
        runtime.create_machine(_TickCounter, None)  # unbounded wall-clock timer
        ids["collector"] = runtime.create_machine(_Collector, name="Collector")

    runtime = ProductionRuntime(tick_interval=0.001)
    runtime.start(entry)
    try:
        poster = threading.Thread(
            target=runtime.post_event, args=(ids["collector"], _Work("external"))
        )
        poster.start()
        poster.join(timeout=10)
        assert not poster.is_alive()
        # A join probe the pump starved would sit out its 1 s wait unanswered
        # (counted rather than timed: a loaded host can stall this thread).
        answers, probe = [], runtime._probe_quiescent

        async def counting_probe():
            answers.append(await probe())
            return answers[-1]

        runtime._probe_quiescent = counting_probe
        started = time.monotonic()
        assert runtime.join(timeout=0.2) is False
        assert time.monotonic() - started < 5.0
        assert answers and not any(answers)
        assert runtime.termination_reason == "bound"
        deadline = time.monotonic() + 10
        collector = runtime.machines_of_type(_Collector)[0]
        counter = runtime.machines_of_type(_TickCounter)[0]
        while time.monotonic() < deadline and not (collector.seen and counter.ticks):
            time.sleep(0.005)
        assert collector.seen == ["external"]
        assert counter.ticks >= 1
    finally:
        started = time.monotonic()
        bug = runtime.shutdown()
        assert time.monotonic() - started < 5.0
    assert bug is None
    spinner = runtime.machines_of_type(_Spinner)[0]
    assert spinner.spins > 64, "the spinner itself kept running all along"


class _Child(Machine):
    def on_start(self, started):
        started.append(self.id.name)


class _Spawner(Machine):
    def on_start(self, started):
        self.started = started
        self.create(_Child, started, name="from-on-start")

    @on_event(_Trigger)
    def spawn(self):
        self.create(_Child, self.started, name="from-handler")


def test_machines_created_from_entry_and_handlers_all_start():
    started = []

    def entry(runtime):
        runtime.create_machine(_Child, started, name="from-entry")
        spawner = runtime.create_machine(_Spawner, started)
        runtime.send_event(spawner, _Trigger())

    runtime = ProductionRuntime()
    assert runtime.run(entry, timeout=30) is None
    assert sorted(started) == ["from-entry", "from-handler", "from-on-start"]
    assert runtime.termination_reason == "quiescence"


# ---------------------------------------------------------------------------
# a bug stops the pump mid-slice
# ---------------------------------------------------------------------------
class _Forbidden(Event):
    pass


class _NeverMonitor(Monitor):
    class Watching(State, initial=True):
        @on_event(_Forbidden)
        def violated(self):
            self.assert_that(False, "forbidden event observed")


class _Notifier(Machine):
    @on_event(_Trigger)
    def tell(self):
        self.notify_monitor(_NeverMonitor, _Forbidden())


class _Misuser(Machine):
    @on_event(_Trigger)
    def misuse(self):
        raise FrameworkError("handler misused the framework")


def _boot_culprit_among_loaded_bystanders(culprit_cls):
    """Queue order [culprit, bystander, bystander]: the culprit's second
    dispatch (the trigger) is step 4, with 100 bystander events behind it."""
    order = []

    def entry(runtime):
        runtime.register_monitor(_NeverMonitor)
        culprit = runtime.create_machine(culprit_cls)
        for name in ("B1", "B2"):
            bystander = runtime.create_machine(_Recorder, order, name=name)
            for i in range(50):
                runtime.send_event(bystander, _Work(i))
        runtime.send_event(culprit, _Trigger())

    runtime = ProductionRuntime()
    runtime.start(entry)
    started = time.monotonic()
    assert runtime.join(timeout=30) is True
    assert time.monotonic() - started < 5.0, "join must not poll out its timeout"
    assert runtime.termination_reason == "stopped"
    return runtime, order


@pytest.mark.parametrize(
    "culprit_cls, kind", [(_Notifier, "safety"), (_Crasher, "exception")]
)
def test_bug_stops_the_pump_mid_slice(culprit_cls, kind):
    runtime, order = _boot_culprit_among_loaded_bystanders(culprit_cls)
    counts = dict(runtime.dispatch_counts)
    assert runtime.step_count == 4
    assert sorted(counts.values()) == [1, 1, 2]
    assert order == [("B1", "start"), ("B2", "start")]
    time.sleep(0.05)  # nothing may trickle through after the bug
    assert runtime.step_count == 4 and runtime.dispatch_counts == counts
    bug = runtime.shutdown()
    assert bug is not None and bug.kind == kind and bug.step == 4
    assert runtime.step_count == 4 and runtime.dispatch_counts == counts


def test_framework_error_mid_slice_surfaces_from_shutdown():
    runtime, order = _boot_culprit_among_loaded_bystanders(_Misuser)
    assert runtime.step_count == 4
    assert order == [("B1", "start"), ("B2", "start")]
    with pytest.raises(FrameworkError, match="misused the framework"):
        runtime.shutdown()
    assert runtime.step_count == 4


def test_lost_wakeup_is_a_framework_error_not_a_hang():
    ids = {}

    def entry(runtime):
        ids["collector"] = runtime.create_machine(_Collector, name="Collector")

    runtime = ProductionRuntime()
    runtime.start(entry)
    assert runtime.join(timeout=30) is True
    assert runtime.termination_reason == "quiescence"
    # Break the has-work-implies-queued invariant on purpose: work that
    # bypassed the enqueue path never reaches the run queue.
    collector = runtime.machine_instance(ids["collector"])
    collector._inbox.append(_Work("smuggled"))
    started = time.monotonic()
    assert runtime.join(timeout=30) is True
    assert time.monotonic() - started < 5.0
    assert runtime.termination_reason == "stopped"
    with pytest.raises(FrameworkError, match="lost wake-up.*Collector|Collector.*lost wake-up"):
        runtime.shutdown()
    assert collector.seen == []


# ---------------------------------------------------------------------------
# lifecycle misuse
# ---------------------------------------------------------------------------
def test_create_machine_before_start_is_a_framework_error():
    with pytest.raises(FrameworkError, match="requires a started runtime"):
        ProductionRuntime().create_machine(_IdleStarter)


def test_shutdown_without_join_applies_bound_rules_not_quiescence():
    """Machines merely in flight at shutdown are not spurious deadlocks."""

    def entry(runtime):
        runtime.create_machine(_ForeverBlocked)

    runtime = ProductionRuntime()
    runtime.start(entry)
    bug = runtime.shutdown()  # no join: cut off at an arbitrary point
    assert runtime.termination_reason == "bound"
    assert bug is None, "a cut-off run must not be judged by quiescence rules"


def test_start_twice_is_a_framework_error():
    runtime = ProductionRuntime()
    runtime.start(lambda rt: rt.create_machine(_IdleStarter))
    try:
        with pytest.raises(FrameworkError, match="only be called once"):
            runtime.start(lambda rt: None)
    finally:
        runtime.join(timeout=10)
        assert runtime.shutdown() is None


def test_external_send_after_shutdown_is_a_framework_error():
    ids = {}

    def entry(runtime):
        ids["target"] = runtime.create_machine(_Collector, name="Collector")

    runtime = ProductionRuntime()
    runtime.start(entry)
    runtime.join(timeout=10)
    assert runtime.shutdown() is None
    # Both external-send entry points reject cleanly instead of touching the
    # closed event loop.
    with pytest.raises(FrameworkError, match="not-yet-shut-down"):
        runtime.post_event(ids["target"], _Work(1))
    with pytest.raises(FrameworkError, match="not-yet-shut-down"):
        runtime.send_event(ids["target"], _Work(2))


def test_production_runtime_exposes_no_schedule_trace():
    runtime = ProductionRuntime()
    assert not hasattr(runtime, "trace")
    assert not hasattr(runtime, "strategy")
