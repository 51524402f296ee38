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
    Halt,
    Machine,
    MachineId,
    Monitor,
    ProductionRuntime,
    Receive,
    State,
    TestingConfig,
    TestRuntime,
    TimerMachine,
    TimerTick,
    on_event,
    run_test,
)
from repro.core.errors import FrameworkError, SafetyViolationError
from repro.core.strategy import create_strategy
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


def _testing_runtime(seed, max_steps):
    config = TestingConfig(strategy="random", seed=seed, max_steps=max_steps)
    strategy = create_strategy(config)
    strategy.prepare_iteration(0)
    return TestRuntime(strategy, config)


class _GhostTimerHost(Machine):
    def on_start(self):
        self.create(
            TimerMachine, MachineId(999, "Nobody", "ghost"), max_ticks=3, always_fire=True
        )


def test_timer_tick_to_an_unknown_machine_is_a_framework_error_as_under_testing():
    """It used to die with the timer's asyncio task: ``bug=None``, "quiescence"."""
    with pytest.raises(FrameworkError, match=r"send to unknown machine ghost\(999\)"):
        _testing_runtime(0, 50).run(lambda rt: rt.create_machine(_GhostTimerHost))

    runtime = ProductionRuntime(tick_interval=0.001)
    runtime.start(lambda rt: rt.create_machine(_GhostTimerHost))
    started = time.monotonic()
    assert runtime.join(timeout=30) is True
    assert time.monotonic() - started < 5.0, "join must not poll out its timeout"
    assert runtime.termination_reason == "stopped"
    with pytest.raises(FrameworkError, match=r"send to unknown machine ghost\(999\)"):
        runtime.shutdown()


class _TickHoarder(Machine):
    """Defers its ticks, so the timer's next round scans one with its predicate."""

    class Busy(State, initial=True):
        deferred = (TimerTick,)


class _BadPredicateTimer(TimerMachine):
    def on_start(self, target, error):
        super().on_start(target, always_fire=True, max_ticks=5)

        def predicate(tick):
            raise error

        self._tick_predicate = predicate


@pytest.mark.parametrize(
    "error, kind, message",
    [
        (SafetyViolationError("tick predicate asserted"), "safety", "tick predicate asserted"),
        (ValueError("tick predicate broke"), "exception", "unexpected ValueError: tick predicate broke"),
    ],
)
def test_exception_in_the_timer_loop_is_a_recorded_bug(error, kind, message):
    def entry(runtime):
        hoarder = runtime.create_machine(_TickHoarder)
        runtime.create_machine(_BadPredicateTimer, hoarder, error)

    runtime = ProductionRuntime(tick_interval=0.001)
    bug = runtime.run(entry, timeout=30)
    assert runtime.termination_reason == "stopped"
    assert bug is not None and bug.kind == kind and message in bug.message
    assert bug.log and bug.log[-1].startswith(f"BUG ({kind})")


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
# the unrolled pump against the testing loop, branch by branch
# ---------------------------------------------------------------------------
class _Ping(Event):
    pass


class _Pong(Event):
    pass


class _Noise(Event):
    pass


class _Num(Event):
    def __init__(self, n):
        self.n = n


class _Seeing(Machine):
    """Records ``(state, what)`` for everything its subclasses handle."""

    def on_start(self, *peers):
        self.peers = peers
        self.seen = []

    def see(self, what):
        self.seen.append((self.current_state, what))


class _RaiseFirst(_Seeing):
    @on_event(_Ping)
    def ping(self):
        self.see("ping")
        self.raise_event(_Pong())

    @on_event(_Pong)
    def pong(self):
        self.see("pong")

    @on_event(_Num)
    def num(self, event):
        self.see(event.n)


class _RaiseThroughDefer(_Seeing):
    @on_event(_Pong)
    def pong(self):
        self.see("pong")

    class Hold(State, initial=True):
        deferred = (_Pong,)

        @on_event(_Ping)
        def ping(self):
            self.see("ping")
            self.raise_event(_Pong())


class _Ignorer(_Seeing):
    class Deaf(State, initial=True):
        ignored = (_Noise,)

        @on_event(_Ping)
        def ping(self):
            self.see("ping")


class _Door(_Seeing):
    class Closed(State, initial=True):
        deferred = (_Pong,)

        @on_event(_Ping)
        def open_up(self):
            self.see("ping")
            self.goto(_Door.Open)

    class Open(State):
        def on_entry(self):
            self.see("entered")

        @on_event(_Pong)
        def pong(self):
            self.see("pong")


class _Stacker(_Seeing):
    class Base(State, initial=True):
        @on_event(_Ping)
        def ping(self):
            self.see("ping")
            self.push_state(_Stacker.Over)

        @on_event(_Pong)
        def pong(self):
            self.see("pong")

    class Over(State):
        @on_event(_Num)
        def num(self, event):
            self.see(event.n)
            self.pop_state()


class _Strict(_Seeing):
    @on_event(_Ping)
    def ping(self):
        self.see("ping")


class _Lenient(_Strict):
    ignore_unhandled_events = True


class _Quitter(_Seeing):
    """Tells its peer it is leaving, then halts with events still queued."""

    @on_event(_Ping)
    def ping(self):
        self.see("ping")
        self.send(self.peers[0], _Pong())
        self.halt()

    def on_halt(self):
        self.see("halted")


class _Poker(_Seeing):
    @on_event(_Pong)
    def pong(self):
        self.see("pong")
        self.send(self.peers[0], _Num(7))  # the quitter halted in the step that sent this


class _Waiter(_Seeing):
    """Blocks with an empty inbox; a non-matching send must not wake it."""

    @on_event(_Ping)
    def ping(self):
        self.see("ping")
        self.send(self.peers[0], _Ping())
        got = yield Receive(_Pong)
        self.see(type(got).__name__)

    @on_event(_Num)
    def num(self, event):
        self.see(event.n)


class _Echo(_Seeing):
    @on_event(_Ping)
    def ping(self):
        self.send(self.peers[0], _Num(9))
        self.send(self.peers[0], _Pong())


class _Yielder(_Seeing):
    @on_event(_Ping)
    def ping(self):
        self.see("ping")
        yield  # nothing queued behind it: only the paused handler is work
        self.see("resumed")


class _Starter(_Seeing):
    def on_start(self, leave):
        super().on_start()
        self.see("on_start")
        if leave:
            self.goto(_Starter.Away)

    class Home(State, initial=True):
        def on_entry(self):
            self.see("entered")

    class Away(State):
        def on_entry(self):
            self.see("entered")


def _one(machine_cls, *events):
    def entry(runtime):
        target = runtime.create_machine(machine_cls, name="M")
        for event in events:
            runtime.send_event(target, event)

    return entry


def _quitter_and_poker(runtime):
    poker = runtime.create_machine(_Poker, MachineId(1, "_Quitter", "Q"), name="P")
    quitter = runtime.create_machine(_Quitter, poker, name="Q")
    for event in (_Ping(), _Num(1), _Num(2)):
        runtime.send_event(quitter, event)


def _waiter_and_echo(runtime):
    echo = runtime.create_machine(_Echo, MachineId(1, "_Waiter", "M"), name="E")
    runtime.send_event(runtime.create_machine(_Waiter, echo, name="M"), _Ping())


def _two_starters(runtime):
    runtime.create_machine(_Starter, False, name="M")
    runtime.create_machine(_Starter, True, name="N")


#: id -> (entry, what each named machine must have seen, bug kind or None,
#: *lines the log must hold)
DIFFERENTIAL_CASES = {
    "raised-before-inbox": (
        _one(_RaiseFirst, _Ping(), _Num(1)),
        {"M": [("init", "ping"), ("init", "pong"), ("init", 1)]}, None,
    ),
    "raised-event-the-state-defers": (  # the sent _Pong stays deferred for good
        _one(_RaiseThroughDefer, _Pong(), _Ping()),
        {"M": [("Hold", "ping"), ("Hold", "pong")]}, "deadlock",
    ),
    "ignored-dropped-at-dequeue": (
        _one(_Ignorer, _Noise(), _Noise(), _Ping(), _Noise()), {"M": [("Deaf", "ping")]}, None,
        "M(0): ignored _Noise() in state 'Deaf'",
    ),
    "deferred-released-by-goto": (
        _one(_Door, _Pong(), _Pong(), _Ping()),
        {"M": [("Closed", "ping"), ("Open", "entered"), ("Open", "pong"), ("Open", "pong")]}, None,
    ),
    "push-pop-inheritance": (
        _one(_Stacker, _Ping(), _Pong(), _Num(1), _Pong()),
        {"M": [("Base", "ping"), ("Over", "pong"), ("Over", 1), ("Base", "pong")]}, None,
    ),
    "unhandled-event": (
        _one(_Strict, _Ping(), _Pong(), _Ping()), {"M": [("init", "ping")]}, "unhandled-event",
    ),
    "unhandled-event-ignored": (
        _one(_Lenient, _Ping(), _Pong(), _Ping()),
        {"M": [("init", "ping"), ("init", "ping")]}, None,
        "M(0): ignored unhandled _Pong() in state 'init'",
    ),
    "halt-control-event": (
        _one(_Strict, _Ping(), Halt(), _Ping()), {"M": [("init", "ping")]}, None, "M(0): halted",
    ),
    "halt-in-handler-then-send-to-halted": (
        _quitter_and_poker,
        {"Q": [("init", "ping"), ("init", "halted")], "P": [("init", "pong")]}, None,
        "Q(1): halted", "dropped P(0) -> Q(1): _Num(n=7) (target halted)",
    ),
    "receive-woken-by-the-matching-send-only": (
        _waiter_and_echo, {"M": [("init", "ping"), ("init", "_Pong"), ("init", 9)]}, None,
    ),
    "bare-yield-on-an-empty-inbox": (
        _one(_Yielder, _Ping()), {"M": [("init", "ping"), ("init", "resumed")]}, None,
    ),
    "start-then-initial-entry": (  # N's goto in on_start ran the entry action itself
        _two_starters,
        {"M": [("Home", "on_start"), ("Home", "entered")],
         "N": [("Home", "on_start"), ("Away", "entered")]}, None,
    ),
}


def _observe(runtime, bug):
    log = runtime.execution_log
    machines = {}
    for machine in runtime.machines_of_type(Machine):
        # test_state_dsl.py holds this at every step of a testing run; here it
        # is what both controllers must leave behind.
        assert machine._halted or machine._enabled == machine._has_work(), machine
        prefix = f"{machine.id}: "
        machines[machine.id.name] = (
            machine.seen,
            [line for line in log if line.startswith(prefix)],
            machine.state_stack,
            machine.is_halted,
            list(machine._inbox),
            dict(machine._pending_counts),
        )
    return machines, sorted(log), bug and (bug.kind, bug.message)


@pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
def test_both_controllers_take_the_same_machine_steps(case):
    entry, seen, bug_kind, *logged = DIFFERENTIAL_CASES[case]
    production = ProductionRuntime()
    served = _observe(production, production.run(entry, timeout=30))
    for seed in range(3):
        testing = _testing_runtime(seed, 200)
        assert _observe(testing, testing.run(entry)) == served
    machines, log, bug = served
    assert (bug and bug[0]) == bug_kind
    assert {name: machines[name][0] for name in seen} == seen
    assert set(logged) <= set(log)


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
