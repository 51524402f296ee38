"""TimerMachine stop semantics under systematic exploration.

:class:`~repro.core.timer.StopTimer` documents that "pending ticks may still
be delivered" after the stop request: a tick the timer already sent (or a
loop round scheduled before the stop is dequeued) can race ahead of or
behind the stop.  These tests pin that contract down with DFS — *both*
interleavings (a tick delivered despite the stop, and the stop winning with
no tick at all) must actually be reachable — and verify that ``max_ticks``
bounds tick delivery in every explored execution.
"""

from repro.core import TestingConfig, TestRuntime, TimerMachine, TimerTick, on_event
from repro.core.machine import Machine
from repro.core.strategy import DFSStrategy, RoundRobinStrategy
from repro.core.timer import StartTimer, StopTimer, _TimerLoop


class _StopRacer(Machine):
    """Stops its timer upon the first tick — the §3.3 stop/tick race.

    By the time the ``StopTimer`` request is dequeued by the timer, another
    loop round (already queued ahead of it in the timer's FIFO inbox) may
    have fired a second tick: that tick is then delivered even though the
    timer was asked to stop — the documented "pending ticks may still be
    delivered" behaviour.  Under other interleavings the stop wins and no
    further tick arrives; with enough unlucky controlled choices no tick is
    ever fired at all.
    """

    def on_start(self):
        self.ticks = 0
        self.tick_after_stop = False
        self.timer = self.create(TimerMachine, self.id, max_ticks=3)

    @on_event(TimerTick)
    def on_tick(self):
        self.ticks += 1
        if self.ticks == 1:
            self.send(self.timer, StopTimer())
        # Inspecting the timer instance tells us whether this tick landed
        # after the timer had already processed the StopTimer request.
        timer = self._runtime.machine_instance(self.timer)
        if not timer.active:
            self.tick_after_stop = True


def _explore(entry_cls, max_steps, iterations=4000):
    """DFS-explore the harness, collecting the machine's final observations."""
    strategy = DFSStrategy(seed=0)
    config = TestingConfig(
        max_steps=max_steps,
        iterations=iterations,
        report_deadlocks=False,
    )
    outcomes = []
    exhausted = False
    for iteration in range(iterations):
        strategy.prepare_iteration(iteration)
        if strategy.exhausted:
            exhausted = True
            break
        runtime = TestRuntime(strategy, config)
        bug = runtime.run(lambda rt: rt.create_machine(entry_cls))
        assert bug is None, f"timer harness must be bug-free, got {bug}"
        machine = runtime.machines_of_type(entry_cls)[0]
        outcomes.append(machine)
    return outcomes, exhausted


def test_dfs_reaches_both_stop_interleavings():
    outcomes, exhausted = _explore(_StopRacer, max_steps=20)
    assert exhausted, "the stop-race state space should be fully explorable"
    tick_counts = {machine.ticks for machine in outcomes}
    # The stop can win outright (no tick ever delivered) ...
    assert 0 in tick_counts, "an interleaving with no tick must be reachable"
    # ... and a pending tick can still land (the documented race).
    assert any(machine.ticks > 0 for machine in outcomes), (
        "an interleaving delivering a tick despite StopTimer must be reachable"
    )
    # In particular the strong form: the tick is dispatched *after* the
    # timer already processed the StopTimer request.
    assert any(machine.tick_after_stop for machine in outcomes), (
        "a tick delivered after the stop was processed must be reachable"
    )


def test_max_ticks_bounds_delivery_in_every_interleaving():
    outcomes, exhausted = _explore(_StopRacer, max_steps=20)
    assert exhausted
    # max_ticks bounds loop rounds, so ticks can never exceed it; with the
    # stop racing in, the explored maximum is in fact lower still.
    assert all(machine.ticks <= 3 for machine in outcomes)
    assert max(machine.ticks for machine in outcomes) == 2


class _BoundedAlwaysFire(Machine):
    """Regular periodic timer: max_ticks bounds a tick-per-round timer."""

    def on_start(self):
        self.ticks = 0
        self.timer = self.create(
            TimerMachine, self.id, max_ticks=3, always_fire=True
        )

    @on_event(TimerTick)
    def on_tick(self):
        self.ticks += 1


def test_always_fire_max_ticks_exact_bound():
    outcomes, exhausted = _explore(_BoundedAlwaysFire, max_steps=30)
    assert exhausted
    assert outcomes, "exploration must cover at least one execution"
    assert all(machine.ticks <= 3 for machine in outcomes)
    # With always_fire, some schedule lets the timer use its full budget.
    assert any(machine.ticks == 3 for machine in outcomes)


# ---------------------------------------------------------------------------
# StartTimer: exactly one loop event, however the restart races the loop
# ---------------------------------------------------------------------------
class _Restarter(Machine):
    """Creates a free-running timer and sends it ``script`` straight away."""

    ignore_unhandled_events = True

    def on_start(self, script):
        self.timer = self.create(TimerMachine, self.id)
        for event_cls in script:
            self.send(self.timer, event_cls())


def _run_restarter(script, steps):
    strategy = RoundRobinStrategy()
    strategy.prepare_iteration(0)
    runtime = TestRuntime(strategy, TestingConfig(max_steps=steps))
    assert runtime.run(lambda rt: rt.create_machine(_Restarter, script)) is None
    return runtime, runtime.machines_of_type(TimerMachine)[0]


def test_stop_start_overtaking_the_loop_event_keeps_one_loop():
    # The timer's inbox is [StartEvent, StopTimer, StartTimer]: on_start
    # queues the loop event *behind* the pair, so the restart is handled
    # while that loop event is still in flight.  A second one would stay
    # queued forever and double the timer's rate.
    runtime, timer = _run_restarter((StopTimer, StartTimer), steps=40)
    assert timer.active
    assert runtime.count_pending_events(timer.id, _TimerLoop) == 1
    _, free_running = _run_restarter((), steps=40)
    assert 0 < timer.rounds <= free_running.rounds


def test_start_after_the_loop_drained_rearms_it():
    # Here the loop event is consumed while the timer is stopped (run_loop
    # returns without re-sending), so the restart has to send a new one.
    runtime, timer = _run_restarter((StopTimer,), steps=40)
    assert runtime.termination_reason == "quiescence"
    assert not timer.active
    assert runtime.count_pending_events(timer.id, _TimerLoop) == 0
    runtime.send_event(timer.id, StartTimer())
    runtime._execution_loop()
    assert runtime.termination_reason == "bound"
    assert timer.active and timer.rounds > 0
    assert runtime.count_pending_events(timer.id, _TimerLoop) == 1
