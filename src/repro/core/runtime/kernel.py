"""The runtime kernel: everything both execution modes share.

:class:`RuntimeKernel` owns the *semantics* of the machine programming model —
the machine table, the monitor registry, state-stack transitions, handler
dispatch, event disciplines, coroutine (``yield Receive``) advancement,
assertion checking, deferred structured logging and bug recording — without
committing to an execution policy.  Two controllers plug in on top:

* :class:`~repro.core.runtime.testing.TestRuntime` — the serialized
  systematic-testing controller: one thread, every interleaving decision
  delegated to a scheduling strategy and recorded in a replayable
  :class:`~repro.core.trace.ScheduleTrace`.
* :class:`~repro.core.runtime.production.ProductionRuntime` — the concurrent
  deployment controller: an asyncio event loop with one run queue of
  runnable machines drained by one pump callback, thread-safe external
  sends, ``os.urandom``-seeded nondeterminism and real wall-clock timers.

Machines and monitors talk to the runtime exclusively through the narrow
kernel surface (``send_event``, ``create_machine``, ``next_boolean`` /
``next_integer``, ``transition_machine`` / ``push_machine_state`` /
``pop_machine_state``, ``check_assertion``, ``notify_monitor``,
``count_pending_events`` / ``has_pending_event``, ``log`` and the
``_mark_enabled`` / ``_mark_disabled`` runnability hooks), so the same
harness classes run unmodified under either controller — the paper's promise
that the *tested* program is the *deployed* program.

Controllers must implement:

* ``send_event(target, event, sender=None)`` — deliver an event.
* ``next_boolean(requester)`` / ``next_integer(requester, max_value)`` —
  resolve a nondeterministic choice (controlled in testing, random in
  production).
* ``_mark_enabled(machine)`` / ``_mark_disabled(machine)`` — react to a
  machine's runnability changing.  ``_mark_enabled`` is called (by
  ``send_event``, ``create_machine``, ``raise_event``) only while
  ``machine._enabled`` is false; each controller
  owns that flag (membership in the sorted enabled set in testing, "on the
  run queue or being dispatched" in production).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from types import GeneratorType
from typing import Any, Dict, List, Optional, Tuple

from ..config import TestingConfig
from ..coverage import CoverageTracker
from ..declarations import DEFER, IGNORE, StateRef, resolve_state_name
from ..errors import (
    BugError,
    DeadlockError,
    FrameworkError,
    LivenessViolationError,
    SafetyViolationError,
    UnhandledEventError,
)
from ..events import Event, Halt, Receive, StartEvent
from ..ids import MachineId
from ..machine import Machine, _dec_pending
from ..monitors import Monitor

#: One deferred log entry: a flat ``(template, *args)`` tuple (flat rather
#: than nested to save one allocation per record on the hot path).  Arguments
#: are formatted (and therefore ``repr()``-ed) only when the log is
#: materialized, so they should be values whose printable form is stable for
#: the duration of the execution (ids, event payloads, state names).
LogRecord = Tuple[Any, ...]


#: Runtime-control events, dispatched outside the user handler table.
_CONTROL_EVENTS = (Halt, StartEvent)


def _subclass_queued(counts: dict, event_type: type) -> bool:
    """Miss path of the pending queries' type test (``counts`` keys are exact
    event classes, so the callers probe ``event_type in counts`` first)."""
    for queued_type in counts:
        if issubclass(queued_type, event_type):
            return True
    return False


def format_log_record(record: LogRecord) -> str:
    """Materialize one deferred log record into its final string."""
    return record[0].format(*record[1:]) if len(record) > 1 else record[0]


class _VerboseLogSink:
    """Log sink that mirrors every record to stdout as it is appended.

    Non-verbose runtimes use the raw ring-buffer deque as their sink, so the
    per-record cost is a single C-level ``deque.append``; this wrapper is
    swapped in only when ``config.verbose`` is set and pays the formatting
    cost eagerly (that is the point of verbose mode).
    """

    __slots__ = ("_log",)

    def __init__(self, log: "deque[LogRecord]") -> None:
        self._log = log

    def append(self, record: LogRecord) -> None:
        self._log.append(record)
        print(f"[repro] {format_log_record(record)}")


@dataclass
class BugInfo:
    """Description of a specification violation found in one execution."""

    kind: str
    message: str
    step: int
    #: the live exception object; process-local, excluded from equality and
    #: JSON serialization so reports round-trip across process boundaries.
    exception: Optional[BaseException] = field(default=None, compare=False)
    trace: Optional["ScheduleTrace"] = None  # noqa: F821 - repro.core.trace
    log: List[str] = field(default_factory=list)
    #: minimized counterexample produced by :mod:`repro.core.shrink`, plus its
    #: shrink statistics; both None until a shrinker has run on this bug.
    shrunk_trace: Optional["ScheduleTrace"] = None  # noqa: F821
    shrink: Optional["ShrinkStats"] = None  # noqa: F821 - see repro.core.shrink

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message} (at step {self.step})"

    def to_dict(self) -> dict:
        payload = {
            "kind": self.kind,
            "message": self.message,
            "step": self.step,
            "trace": self.trace.to_dict() if self.trace is not None else None,
        }
        # The runtime stores the same materialized log on the bug and on its
        # replayable trace; serialize it once (on the trace) and only emit a
        # separate "log" key when the two genuinely differ (hand-built bugs,
        # production-mode bugs that have no trace).
        if self.trace is None or self.log != self.trace.log:
            payload["log"] = list(self.log)
        # Shrink results are optional: payloads of unshrunk bugs stay
        # byte-identical to what previous versions wrote.  When shrinking
        # achieved nothing (shrunk == recorded trace) only the statistics
        # are emitted — from_dict points shrunk_trace back at trace — so the
        # full step list and log are never serialized twice.
        if self.shrunk_trace is not None and (
            self.trace is None or self.shrunk_trace.steps != self.trace.steps
        ):
            payload["shrunk_trace"] = self.shrunk_trace.to_dict()
        if self.shrink is not None:
            payload["shrink"] = self.shrink.to_dict()
        return payload

    @staticmethod
    def from_dict(payload: dict) -> "BugInfo":
        from ..trace import ScheduleTrace

        trace = payload.get("trace")
        trace = ScheduleTrace.from_dict(trace) if trace is not None else None
        log = payload.get("log")
        if log is None:
            log = trace.log if trace is not None else []
        shrunk = payload.get("shrunk_trace")
        shrink_stats = payload.get("shrink")
        if shrunk is not None:
            shrunk = ScheduleTrace.from_dict(shrunk)
        elif shrink_stats is not None:
            # stats without a shrunk_trace key: the shrink achieved no
            # reduction and to_dict elided the duplicate trace.
            shrunk = trace
        if shrink_stats is not None:
            from ..shrink import ShrinkStats  # late import: shrink imports runtime

            shrink_stats = ShrinkStats.from_dict(shrink_stats)
        return BugInfo(
            kind=payload["kind"],
            message=payload["message"],
            step=int(payload["step"]),
            trace=trace,
            log=list(log),
            shrunk_trace=shrunk,
            shrink=shrink_stats,
        )


class RuntimeKernel:
    """Execution-policy-free core shared by the testing and production modes."""

    #: True on runtimes that run real wall-clock timers; the modeled
    #: :class:`~repro.core.timer.TimerMachine` consults it to decide between
    #: its controlled-choice loop and the runtime's timer service.
    wall_clock = False

    #: execution-fingerprint tracker (:mod:`repro.core.fingerprint`); ``None``
    #: unless the testing controller enabled fingerprinting, so every hook
    #: site below guards with one ``is not None`` check and the default hot
    #: path pays nothing else.
    _fingerprint = None

    def __init__(
        self,
        config: Optional[TestingConfig] = None,
        coverage: Optional[CoverageTracker] = None,
    ) -> None:
        self.config = config or TestingConfig()
        self.coverage = coverage
        self.bug: Optional[BugInfo] = None
        self.step_count = 0
        self.termination_reason: Optional[str] = None

        self._machines: Dict[MachineId, Machine] = {}
        self._monitors: Dict[type, Monitor] = {}
        self._next_machine_value = 0
        #: deferred (template, args) records in a ring buffer; bounded so
        #: that executions that run for millions of steps cannot grow memory
        #: without bound.  Only the most recent ``config.max_log_records``
        #: entries survive, which is what a bug report needs (the tail
        #: leading up to the violation).
        self._log: deque[LogRecord] = deque(maxlen=self.config.max_log_records)
        #: where hot-path call sites append records: the raw deque normally,
        #: a stdout-mirroring wrapper when ``verbose`` is on.
        self._sink = _VerboseLogSink(self._log) if self.config.verbose else self._log
        #: hot-path machine lookup keyed by the id's integer value: hashing
        #: an int is C-level, hashing a MachineId calls back into Python.
        self._machines_by_value: Dict[int, Machine] = {}

    # ------------------------------------------------------------------
    # controller hooks (implemented by TestRuntime / ProductionRuntime)
    # ------------------------------------------------------------------
    def send_event(self, target: MachineId, event: Event, sender: Optional[MachineId] = None) -> None:
        raise NotImplementedError

    def next_boolean(self, requester: MachineId) -> bool:
        raise NotImplementedError

    def next_integer(self, requester: MachineId, max_value: int) -> int:
        raise NotImplementedError

    def _mark_enabled(self, machine: Machine) -> None:
        """React to ``machine`` becoming runnable (send/create/raise)."""
        raise NotImplementedError

    def _mark_disabled(self, machine: Machine) -> None:
        """React to ``machine`` ceasing to be runnable (halt)."""
        raise NotImplementedError

    def start_wall_clock_timer(self, timer: Machine) -> None:
        """Timer service of wall-clock runtimes; testing mode never calls it."""
        raise FrameworkError(
            "wall-clock timers require a ProductionRuntime "
            "(testing mode models timers with controlled choices)"
        )

    def stop_wall_clock_timer(self, timer: Machine) -> None:
        raise FrameworkError("wall-clock timers require a ProductionRuntime")

    # ------------------------------------------------------------------
    # registration API (used by the test entry point and by machines)
    # ------------------------------------------------------------------
    def create_machine(
        self,
        machine_cls: type,
        *args: Any,
        name: str = "",
        creator: Optional[MachineId] = None,
        **kwargs: Any,
    ) -> MachineId:
        """Instantiate ``machine_cls`` and schedule its asynchronous start."""
        if not (isinstance(machine_cls, type) and issubclass(machine_cls, Machine)):
            raise FrameworkError(f"create_machine expects a Machine subclass, got {machine_cls!r}")
        type_name = machine_cls.__name__
        value = self._next_machine_value
        self._next_machine_value = value + 1
        machine_id = MachineId(value, type_name, name)
        machine = machine_cls(self, machine_id)
        machine._start_args = (args, kwargs)
        self._machines[machine_id] = machine
        self._machines_by_value[value] = machine
        # The tracker must know the machine before its StartEvent lands in
        # the inbox (the enqueue hook looks its record up).
        tracker = self._fingerprint
        if tracker is not None:
            tracker.register_machine(machine)
        # The controllers' send_event enqueue, for a machine known to be
        # fresh (empty inbox, not halted, not in a receive).
        start = StartEvent()
        machine._inbox.append(start)
        machine._pending_counts[StartEvent] = 1
        if tracker is not None:
            tracker.on_enqueue(machine, start)
        ctx = machine._state_ctx
        if ctx.plain or ctx.dequeuable(StartEvent):
            self._mark_enabled(machine)
        if self.coverage is not None:
            self.coverage.machines[type_name] += 1
        if creator is not None:
            self._sink.append(("created {} by {}", machine_id, creator))
        else:
            self._sink.append(("created {}", machine_id))
        return machine_id

    def register_monitor(self, monitor_cls: type) -> Monitor:
        """Register a safety/liveness monitor for this execution."""
        if not (isinstance(monitor_cls, type) and issubclass(monitor_cls, Monitor)):
            raise FrameworkError(f"register_monitor expects a Monitor subclass, got {monitor_cls!r}")
        if monitor_cls in self._monitors:
            raise FrameworkError(f"monitor {monitor_cls.__name__} is already registered")
        monitor = monitor_cls(self)
        self._monitors[monitor_cls] = monitor
        if self._fingerprint is not None:
            self._fingerprint.register_monitor(monitor)
        self.log("registered monitor {}", monitor_cls.__name__)
        # Like machine start-up, the monitor's initial state runs its entry
        # action once, at registration — unless the constructor already
        # transitioned (its goto ran the target's entry action itself).
        if monitor._transition_count == 0:
            entry_action = monitor._spec.entry_actions.get(monitor._current_state)
            if entry_action is not None:
                getattr(monitor, entry_action)()
        return monitor

    # ------------------------------------------------------------------
    # introspection helpers (useful in tests)
    # ------------------------------------------------------------------
    def machine_instance(self, machine_id: MachineId) -> Machine:
        return self._machines[machine_id]

    def count_pending_events(self, target: MachineId, event_type: type, predicate=None) -> int:
        """Number of events of ``event_type`` currently queued at ``target``.

        Used by modeled environment machines (e.g. the timer) to avoid
        flooding a target's inbox with redundant events, which shrinks the
        explored state space without removing any interleaving of distinct
        events.

        Type-only queries read the per-``(machine, event type)`` counts the
        inbox bookkeeping maintains, so their cost is bounded by the number
        of *distinct* queued event types, never by the inbox length.
        Predicate queries probe then scan: one ``event_type in counts``
        lookup (a subclass walk over the counts only when that misses) rules
        the type out before the inbox is touched.
        """
        machine = self._machines_by_value.get(target.value)
        if machine is None:
            return 0
        counts = machine._pending_counts
        if predicate is None:
            total = 0
            for queued_type, count in counts.items():
                if queued_type is event_type or issubclass(queued_type, event_type):
                    total += count
            return total
        if event_type not in counts and not _subclass_queued(counts, event_type):
            return 0
        count = 0
        for event in machine._inbox:
            if isinstance(event, event_type) and predicate(event):
                count += 1
        return count

    def has_pending_event(self, target: MachineId, event_type: type, predicate=None) -> bool:
        """Whether at least one matching event is queued at ``target``.

        Early-exit variant of :meth:`count_pending_events` for callers that
        only need existence (e.g. the modeled timer's one-outstanding-tick
        rule).  Type-only queries are answered from the maintained pending
        counts without touching the inbox; predicate queries make the same
        probe first, then scan and stop at the first match.
        """
        machine = self._machines_by_value.get(target.value)
        if machine is None:
            return False
        counts = machine._pending_counts
        if event_type not in counts and not _subclass_queued(counts, event_type):
            return False
        if predicate is None:
            return True
        for event in machine._inbox:
            if isinstance(event, event_type) and predicate(event):
                return True
        return False

    def machines_of_type(self, machine_cls: type) -> List[Machine]:
        return [m for m in self._machines.values() if isinstance(m, machine_cls)]

    def monitor_instance(self, monitor_cls: type) -> Optional[Monitor]:
        return self._monitors.get(monitor_cls)

    @property
    def execution_log(self) -> List[str]:
        """The execution log, materialized on demand (see :meth:`log`)."""
        # format_log_record inlined (every recorded bug materializes its ring)
        return [r[0].format(*r[1:]) if len(r) > 1 else r[0] for r in self._log]

    # ------------------------------------------------------------------
    # machine-facing services
    # ------------------------------------------------------------------
    def check_assertion(self, condition: bool, message: str, source: str) -> None:
        if not condition:
            raise SafetyViolationError(f"{source}: assertion failed: {message}")

    def notify_monitor(self, monitor_cls: type, event: Event, source: Optional[MachineId] = None) -> None:
        monitor = self._monitors.get(monitor_cls)
        if monitor is None:
            self.log("monitor {} not registered; dropping {!r}", monitor_cls.__name__, event)
            return
        self.log("monitor {} <- {!r} (from {})", monitor_cls.__name__, event, source)
        monitor.handle(event)
        # Monitors run synchronously inside a machine's step; their component
        # is refreshed lazily at the next fingerprint observation.
        if self._fingerprint is not None:
            self._fingerprint.mark_monitor_dirty(monitor)

    def transition_machine(self, machine: Machine, state: StateRef) -> None:
        """``goto``: replace the top of the state stack, running exit/entry."""
        state = resolve_state_name(state)
        spec = machine._spec
        exit_action = spec.exit_actions.get(machine._current_state)
        if exit_action is not None:
            self._run_plain_action(machine, exit_action)
        previous = machine._current_state
        machine._state_stack[-1] = state
        machine._current_state = state
        machine._state_ctx = spec.context_for(tuple(machine._state_stack))
        machine._transition_count += 1
        self.log("{}: {} -> {}", machine._id, previous, state)
        if self.coverage is not None:
            self.coverage.record_transition(type(machine).__name__, previous, state)
        entry_action = spec.entry_actions.get(state)
        if entry_action is not None:
            self._run_plain_action(machine, entry_action)

    def push_machine_state(self, machine: Machine, state: StateRef) -> None:
        """Push ``state`` onto the stack: the current state pauses (no exit
        action) and keeps handling whatever the pushed state does not."""
        state = resolve_state_name(state)
        previous = machine._current_state
        machine._state_stack.append(state)
        machine._current_state = state
        machine._state_ctx = machine._spec.context_for(tuple(machine._state_stack))
        machine._transition_count += 1
        self.log("{}: pushed {} over {}", machine._id, state, previous)
        if self.coverage is not None:
            self.coverage.record_transition(type(machine).__name__, previous, state)
        entry_action = machine._spec.entry_actions.get(state)
        if entry_action is not None:
            self._run_plain_action(machine, entry_action)

    def pop_machine_state(self, machine: Machine) -> None:
        """Pop the top of the stack, running its exit action; the revealed
        state resumes without re-running its entry action."""
        stack = machine._state_stack
        if len(stack) == 1:
            raise FrameworkError(
                f"{machine.id}: pop_state on the bottom state {stack[0]!r}"
            )
        exit_action = machine._spec.exit_actions.get(machine._current_state)
        if exit_action is not None:
            self._run_plain_action(machine, exit_action)
        popped = stack.pop()
        machine._current_state = stack[-1]
        machine._state_ctx = machine._spec.context_for(tuple(stack))
        machine._transition_count += 1
        self.log("{}: popped {} back to {}", machine._id, popped, stack[-1])
        if self.coverage is not None:
            self.coverage.record_transition(type(machine).__name__, popped, stack[-1])

    def record_monitor_state(self, monitor: Monitor, state: str) -> None:
        if state in monitor._hot_states:
            self.log("monitor {} -> {} (hot)", type(monitor).__name__, state)
        else:
            self.log("monitor {} -> {}", type(monitor).__name__, state)
        if self.coverage is not None:
            self.coverage.record_monitor_state(type(monitor).__name__, state)

    def log(self, template: str, *args: Any) -> None:
        """Record a deferred log entry (``str.format`` template + arguments).

        The string is only built when the log is materialized — at bug-record
        time or via :attr:`execution_log` — or immediately when ``verbose``
        mirroring to stdout is enabled.  Call sites therefore pay a tuple
        append, not a ``repr()``, on the no-bug fast path.  The buffer is a
        ring bounded by ``config.max_log_records``.
        """
        self._sink.append((template, *args))

    # ------------------------------------------------------------------
    # dispatch machinery (shared semantics of one machine step)
    # ------------------------------------------------------------------
    # The step rule itself (raised queue before inbox, plain pop or discipline
    # scan, control events aside, handler resolution with the ``handler_only``
    # fallback for a raised event, the call) has no function of its own: it
    # lives unrolled in ``TestRuntime._execution_loop`` and
    # ``ProductionRuntime._pump``, as the enqueue-and-enable rule lives in the
    # two ``send_event``s.  ``tests/core/test_production.py``'s differential
    # holds the copies equal branch by branch; ``test_hotpath_calls.py`` bounds
    # the calls either makes.  Below are the pieces both call.
    def _dequeue_with_disciplines(self, machine: Machine, ctx) -> Event:
        """Dequeue selection under the current state's event disciplines.

        Scans the inbox front-to-back: ignored events are dropped (and
        logged), deferred events are skipped (they stay queued, in order),
        and the first dequeuable event is removed and returned.  Controllers
        only schedule machines with at least one dequeuable event, so the
        scan finding nothing means the runnability bookkeeping is broken —
        a framework bug, reported as such.
        """
        inbox = machine._inbox
        counts = machine._pending_counts
        actions = ctx.actions
        index = 0
        while index < len(inbox):
            event = inbox[index]
            event_type = type(event)
            try:
                action = actions[event_type]
            except KeyError:
                action = ctx.resolve(event_type)
            if action is IGNORE:
                del inbox[index]
                _dec_pending(counts, event_type)
                if self._fingerprint is not None:
                    self._fingerprint.on_inbox_remove(machine, index)
                self._sink.append((
                    "{}: ignored {!r} in state {!r}",
                    machine._id, event, machine._current_state,
                ))
                continue
            if action is DEFER:
                index += 1
                continue
            del inbox[index]
            _dec_pending(counts, event_type)
            if self._fingerprint is not None:
                self._fingerprint.on_inbox_remove(machine, index)
            return event
        raise FrameworkError(
            f"{machine.id}: scheduled with no dequeuable event "
            f"(inbox holds only deferred events in state {machine.current_state!r})"
        )

    def _execute_coroutine_step(self, machine: Machine) -> None:
        """Resume a machine whose handler is paused in a generator."""
        if machine._pending_receive is None:
            # Paused at a plain ``yield``: resume at this scheduling point.
            self._advance_coroutine(machine, None)
            return
        event = machine._dequeue_matching(machine._pending_receive)
        self._sink.append(("{}: resumed with {!r}", machine._id, event))
        machine._pending_receive = None
        self._advance_coroutine(machine, event)

    def _dispatch_control_event(self, machine: Machine, event: Event) -> None:
        """Handle the two runtime-control events (Halt, StartEvent)."""
        if isinstance(event, Halt):
            self._halt_machine(machine)
            return
        args, kwargs = machine._start_args
        self._sink.append(("{}: starting", machine._id))
        initial = machine._current_state
        transitions_before = machine._transition_count
        result = machine.on_start(*args, **kwargs)
        if result is not None:
            self._maybe_start_coroutine(machine, result)
        # The initial state's entry action runs once the machine has started
        # (after ``on_start`` — or its first generator segment — so the
        # fields it initializes are available), unless on_start already
        # transitioned (even away and back: that goto ran the entry action
        # itself) or halted the machine.
        if not machine._halted and machine._transition_count == transitions_before:
            entry_action = machine._spec.entry_actions.get(initial)
            if entry_action is not None:
                self._run_plain_action(machine, entry_action)

    def _on_unhandled_event(self, machine: Machine, event: Event, event_type: type) -> None:
        if machine.ignore_unhandled_events:
            self._sink.append((
                "{}: ignored unhandled {!r} in state {!r}",
                machine._id, event, machine._current_state,
            ))
            return
        raise UnhandledEventError(
            f"{machine.id}: no handler for {event_type.__name__} "
            f"in state {machine.current_state!r}"
        )

    def _maybe_start_coroutine(self, machine: Machine, result: Any) -> None:
        if result is None:
            return
        if isinstance(result, GeneratorType):
            machine._coroutine = result
            self._advance_coroutine(machine, None)
            return
        raise FrameworkError(
            f"{machine.id}: handlers must return None or be generator functions, got {result!r}"
        )

    def _advance_coroutine(self, machine: Machine, value: Any) -> None:
        try:
            yielded = machine._coroutine.send(value)
        except StopIteration:
            machine._coroutine = None
            machine._pending_receive = None
            return
        if isinstance(yielded, Receive):
            machine._pending_receive = yielded
            self.log("{}: waiting for {!r}", machine._id, yielded)
            return
        if yielded is None:
            # A bare ``yield`` is an explicit scheduling point: the machine
            # stays runnable and other machines may interleave here.
            machine._pending_receive = None
            return
        machine._coroutine = None
        raise FrameworkError(
            f"{machine.id}: handlers may only yield Receive objects or None, got {yielded!r}"
        )

    def _run_plain_action(self, machine: Machine, method_name: str) -> None:
        result = getattr(machine, method_name)()
        if result is not None:
            raise FrameworkError(
                f"{machine.id}: entry/exit action {method_name!r} must not be a generator"
            )

    def _halt_machine(self, machine: Machine) -> None:
        if machine._halted:
            return
        machine._halted = True
        if machine._coroutine is not None:
            machine._coroutine.close()
            machine._coroutine = None
        machine._pending_receive = None
        machine._inbox.clear()
        machine._pending_counts.clear()
        machine._raised.clear()
        if self._fingerprint is not None:
            self._fingerprint.on_halt_clear(machine)
        self._mark_disabled(machine)
        machine.on_halt()
        self.log("{}: halted", machine._id)

    # ------------------------------------------------------------------
    # end-of-execution checks
    # ------------------------------------------------------------------
    def _check_end_of_execution(self) -> None:
        reason = self.termination_reason
        check_liveness = (
            (reason == "bound" and self.config.check_liveness_at_bound)
            or (reason == "quiescence" and self.config.check_liveness_on_quiescence)
        )
        if check_liveness:
            for monitor in self._monitors.values():
                if monitor._current_state in monitor._hot_states:
                    self._record_bug(
                        LivenessViolationError(
                            f"liveness monitor {type(monitor).__name__} is still in hot state "
                            f"{monitor.current_state!r} at the end of a bounded execution ({reason})"
                        )
                    )
                    return
        if reason == "quiescence" and self.config.report_deadlocks:
            blocked = [
                m for m in self._machines.values()
                if not m.is_halted and m._pending_receive is not None
            ]
            # A machine whose inbox holds deferred events at quiescence is
            # waiting for a transition that will never happen: the deferred
            # analogue of being blocked in receive.  (Ignored-only backlogs
            # are benign — dropping them needs no further progress.)
            defer_stuck = [
                m for m in self._machines.values()
                if not m.is_halted
                and m._pending_receive is None
                and m._inbox
                and any(m._state_ctx.resolve(type(e)) is DEFER for e in m._inbox)
            ]
            if blocked or defer_stuck:
                clauses = []
                if blocked:
                    names = ", ".join(str(m.id) for m in blocked)
                    clauses.append(f"{names} are blocked in receive")
                if defer_stuck:
                    names = ", ".join(
                        f"{m.id} (state {m.current_state!r})" for m in defer_stuck
                    )
                    # "deferred", not "only deferred": the stuck inbox may
                    # also contain ignored (likewise non-dequeuable) events.
                    if len(defer_stuck) == 1:
                        clauses.append(
                            f"the inbox of {names} holds deferred events "
                            f"it can never dequeue"
                        )
                    else:
                        clauses.append(
                            f"the inboxes of {names} hold deferred events "
                            f"they can never dequeue"
                        )
                self._record_bug(
                    DeadlockError("no machine is runnable but " + " and ".join(clauses))
                )

    def _record_bug(self, error: BugError) -> None:
        self.bug = BugInfo(
            kind=error.kind,
            message=str(error),
            step=self.step_count,
            exception=error,
        )
        self.log("BUG ({}): {}", error.kind, error)
