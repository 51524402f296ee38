"""Seed-equivalent reference runtime, for equivalence tests and benchmarks.

:class:`BaselineRuntime` reinstates the pre-overhaul hot path of
:class:`~repro.core.runtime.TestRuntime`:

* **eager logging** — every log call formats its string immediately and
  appends it to an unbounded list, exactly like the original f-string call
  sites (``repr()`` runs on every send/dispatch/transition whether or not a
  bug is ever found);
* **full-scan scheduling** — ``_execution_loop`` rebuilds the enabled-machine
  list by scanning every machine on every step;
* **uncached dispatch** — handler resolution walks the handler table per
  event (no ``(state, event_type)`` memo) and trace labels are re-formatted
  per step instead of read from the cached ``MachineId._str``.

Two uses:

* the trace-stability regression tests run both runtimes over every strategy
  and assert byte-identical :class:`~repro.core.trace.ScheduleTrace` steps and
  identical bug outcomes — certifying the incremental enabled-set bookkeeping
  against the seed semantics;
* the before/after throughput benchmark (``benchmarks/test_bench_runtime_hotpath.py``)
  measures both in the same process, which makes the asserted speedup robust
  to machine load.

This module is intentionally not exported from :mod:`repro.core`: it exists
to pin down the seed behavior, not to be scheduled in production runs.
"""

from __future__ import annotations

from typing import List

from .declarations import ANY_STATE
from .errors import BugError, FrameworkError, UnhandledEventError
from .events import Halt, StartEvent
from .machine import Machine, MachineHaltRequested
from .runtime import TestRuntime, format_log_record


def _resolve_handler(spec, state: str, event_type: type):
    """Seed-era resolution: walk the handler table per event, no memo."""
    for candidate_state in (state, ANY_STATE):
        for base in event_type.__mro__:
            info = spec.handlers.get((candidate_state, base))
            if info is not None:
                return info
    return None


class _EagerSink:
    """Sink that formats every record immediately (the seed's cost model)."""

    __slots__ = ("lines",)

    def __init__(self) -> None:
        self.lines: List[str] = []

    def append(self, record) -> None:
        self.lines.append(format_log_record(record))


class BaselineRuntime(TestRuntime):
    """Pre-overhaul :class:`TestRuntime` behavior, bit-for-bit."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._sink = _EagerSink()

    @property
    def execution_log(self) -> List[str]:
        return list(self._sink.lines)

    # ------------------------------------------------------------------
    # Seed pending-query cost model: a full O(inbox) scan per call.  (The
    # reworked runtime answers type-only queries from maintained per-type
    # counts; the baseline's seed dequeue path below does not maintain
    # them, so it must not read them either.)
    # ------------------------------------------------------------------
    def count_pending_events(self, target, event_type, predicate=None) -> int:
        machine = self._machines.get(target)
        if machine is None:
            return 0
        count = 0
        for event in machine._inbox:
            if isinstance(event, event_type) and (predicate is None or predicate(event)):
                count += 1
        return count

    def has_pending_event(self, target, event_type, predicate=None) -> bool:
        machine = self._machines_by_value.get(target.value)
        if machine is None:
            return False
        for event in machine._inbox:
            if isinstance(event, event_type) and (predicate is None or predicate(event)):
                return True
        return False

    # ------------------------------------------------------------------
    def _execution_loop(self) -> None:
        # The seed loop: scan every machine for runnability on every step.
        while self.step_count < self.config.max_steps:
            enabled = [m for m in self._machines.values() if m._has_work()]
            if not enabled:
                self.termination_reason = "quiescence"
                return
            enabled_ids = [m.id for m in enabled]
            chosen_id = self.strategy.next_machine(enabled_ids, self.step_count)
            if chosen_id not in self._machines:
                raise FrameworkError(f"strategy chose unknown machine {chosen_id}")
            # Re-format the label per step, as the seed's str() call did.
            label = f"{chosen_id.name or chosen_id.type_name}({chosen_id.value})"
            self.trace.add_scheduling_choice(chosen_id.value, label)
            self.step_count += 1
            try:
                self._execute_step(self._machines[chosen_id])
            except BugError as error:
                self._record_bug(error)
                return
        self.termination_reason = "bound"

    def _execute_step(self, machine: Machine) -> None:
        try:
            if machine._coroutine is not None:
                if machine._pending_receive is None:
                    self._advance_coroutine(machine, None)
                    return
                event = machine._dequeue_matching(machine._pending_receive)
                self.log("{}: resumed with {!r}", machine.id, event)
                machine._pending_receive = None
                self._advance_coroutine(machine, event)
            else:
                event = machine._inbox.popleft()
                self._dispatch_event(machine, event)
        except MachineHaltRequested:
            self._halt_machine(machine)
        except (BugError, FrameworkError):
            raise
        except Exception as exc:  # noqa: BLE001 - seed behavior
            from .errors import UnexpectedExceptionError

            raise UnexpectedExceptionError(
                f"{machine.id}: unexpected {type(exc).__name__}: {exc}"
            ) from exc

    def _dispatch_event(self, machine: Machine, event) -> None:
        if isinstance(event, Halt):
            self._halt_machine(machine)
            return
        if isinstance(event, StartEvent):
            args, kwargs = machine._start_args
            self.log("{}: starting", machine.id)
            result = machine.on_start(*args, **kwargs)
            self._maybe_start_coroutine(machine, result)
            return
        info = _resolve_handler(type(machine).spec(), machine.current_state, type(event))
        if info is None:
            if machine.ignore_unhandled_events:
                self.log(
                    "{}: ignored unhandled {!r} in state {!r}",
                    machine.id, event, machine.current_state,
                )
                return
            raise UnhandledEventError(
                f"{machine.id}: no handler for {type(event).__name__} "
                f"in state {machine.current_state!r}"
            )
        self.log("{}: handling {!r} in state {!r}", machine.id, event, machine.current_state)
        if self.coverage is not None:
            self.coverage.record_handled(
                type(machine).__name__, machine.current_state, type(event).__name__
            )
        handler = getattr(machine, info.method_name)
        result = handler(event) if info.wants_event else handler()
        self._maybe_start_coroutine(machine, result)
