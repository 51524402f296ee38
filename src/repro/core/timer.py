"""Modeled timers.

System correctness should never hinge on the frequency of any individual
timer (§3.3), so harnesses delegate all timing nondeterminism to the testing
runtime: a :class:`TimerMachine` repeatedly makes a controlled boolean choice
and, when it comes up true, delivers a :class:`~repro.core.events.TimerTick`
to its target.  The scheduler is therefore free to interleave timeouts
arbitrarily with every other event in the system, which is precisely what
exposes expiration/heartbeat races such as the vNext liveness bug.
"""

from __future__ import annotations

from .declarations import State, on_event
from .events import Event, TimerTick
from .ids import MachineId
from .machine import Machine


class StartTimer(Event):
    """Ask a timer to start (or restart) ticking."""


class StopTimer(Event):
    """Ask a timer to stop ticking (pending ticks may still be delivered)."""


class _TimerLoop(Event):
    """Internal self-message that keeps the timer loop running."""


class TimerMachine(Machine):
    """Nondeterministic timer driven entirely by controlled choices.

    Created with ``create(TimerMachine, target=<machine id>, timer_name=...,
    max_ticks=...)``.  By default the timer loops forever (executions are cut
    off by the engine's step bound, as in the paper); pass ``max_ticks`` to
    bound the number of loop rounds when a naturally terminating execution is
    preferred (e.g. for quiescence-based harnesses).  With ``always_fire`` the
    timer delivers a tick on every loop round (regular periodic timer); by
    default each round makes a controlled nondeterministic choice, exactly as
    in Figure 9 of the paper.
    """

    class Running(State, initial=True, name="running"):
        """The timer's one state; its handlers are machine-wide."""

    def on_start(
        self,
        target: MachineId,
        timer_name: str = "timer",
        max_ticks: "int | None" = None,
        always_fire: bool = False,
    ) -> None:
        self.target = target
        self.timer_name = timer_name
        self.max_ticks = max_ticks
        self.always_fire = always_fire
        self.rounds = 0
        self.active = True
        # Loop-round plumbing allocated once: the loop event has at most one
        # outstanding copy (it is this machine's own self-message), and the
        # tick predicate closes over nothing that changes between rounds.
        self._loop_event = _TimerLoop()
        name = timer_name
        self._tick_predicate = lambda tick: tick.timer_name == name
        if self._runtime.wall_clock:
            # Production mode: ticks come from the runtime's real wall-clock
            # timer service (one round per tick interval, same
            # one-outstanding-tick and max_ticks rules); the controlled
            # self-message loop below exists only under systematic testing.
            self._runtime.start_wall_clock_timer(self)
            return
        self.send(self._id, self._loop_event)

    @on_event(_TimerLoop)
    def run_loop(self) -> None:
        if not self.active:
            return
        self.rounds += 1
        # At most one outstanding tick per timer: a timeout the target has
        # not observed yet is not duplicated (mirroring a periodic timer),
        # which also stops unfair scheduling prefixes from flooding the
        # target's inbox with redundant timeouts.
        # This handler is most of the steps of a timer-driven hunt, so it
        # skips the Machine.send/random wrapper frames; the analyzer reads
        # ``self._runtime.<call>`` (spelled out) as the same effects.
        if not self._runtime.has_pending_event(
            self.target, TimerTick, self._tick_predicate
        ) and (self.always_fire or self._runtime.next_boolean(self._id)):
            self._runtime.send_event(self.target, TimerTick(self.timer_name), self._id)
        if self.max_ticks is None or self.rounds < self.max_ticks:
            self._runtime.send_event(self._id, self._loop_event, self._id)

    @on_event(StopTimer)
    def stop(self) -> None:
        self.active = False
        if self._runtime.wall_clock:
            # A tick already delivered stays in the target's inbox: the
            # documented "pending ticks may still be delivered" race holds
            # in production too — only *future* rounds are cancelled.
            self._runtime.stop_wall_clock_timer(self)

    @on_event(StartTimer)
    def restart(self) -> None:
        if not self.active:
            self.active = True
            self.rounds = 0
            if self._runtime.wall_clock:
                self._runtime.start_wall_clock_timer(self)
            elif not self._runtime.has_pending_event(self._id, _TimerLoop):
                # A stop/start pair can overtake the in-flight loop event;
                # that one resumes the loop, a second would double the rate.
                self.send(self._id, self._loop_event)
