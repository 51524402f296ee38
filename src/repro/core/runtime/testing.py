"""The serialized systematic-testing execution controller.

The :class:`TestRuntime` owns every machine inbox and executes the whole
system in a single thread.  Every interleaving decision — which machine runs
next, and the value of every controlled boolean/integer choice — is delegated
to a :class:`~repro.core.strategy.base.SchedulingStrategy` and recorded in a
:class:`~repro.core.trace.ScheduleTrace`, so that any execution (in particular
a buggy one) can be replayed deterministically.

One :class:`TestRuntime` instance corresponds to one execution; the
:class:`~repro.core.engine.TestingEngine` creates a fresh runtime per
iteration.  All model *semantics* (dispatch, disciplines, transitions,
monitors, logging) live in the shared
:class:`~repro.core.runtime.kernel.RuntimeKernel`; this module adds only the
execution policy: serialized strategy-driven scheduling with trace recording.

Hot-path design
---------------

Table 2 of the paper rests on running very large numbers of controlled
executions, so the per-step path is engineered to do no avoidable work on
executions that find no bug:

* **Lazy structured logging.**  :meth:`RuntimeKernel.log` records
  ``(template, args)`` tuples in a bounded ring buffer instead of building
  strings eagerly.  ``repr()``/``str.format`` run only when ``verbose`` is
  set (mirroring to stdout) or when a bug is recorded and the log has to be
  materialized for the report — never on the no-bug fast path.
* **Incremental enabled set.**  Machines register/deregister their
  runnability on enqueue/dequeue/halt/receive-match, so the scheduler reads
  a maintained, id-ordered list instead of re-scanning every machine on
  every step.  The order (ascending machine id == creation order) is exactly
  the order the previous full-scan implementation produced, so all
  strategies — including replay — see identical enabled sequences and emit
  byte-identical :class:`ScheduleTrace` steps.
* **Cached handler resolution.**  Dispatch resolves events through the
  machine's :class:`~repro.core.declarations.StateContext`, which memoizes
  the ``event_type -> handler | DEFER | IGNORE`` classification per state
  stack, so dispatch stops re-walking the handler table for every event.
* **Cached schedule records.**  A machine's schedule :class:`TraceStep` never
  changes and is immutable, so the machine carries one (built by the first
  step that schedules it, so a short execution never builds more records than
  it appends) and every later step appends that object; likewise the
  initial state and its ``StateContext`` are resolved once per machine
  *class* (``spec.start``).
* **Int-keyed PCT priorities.**  The choosers run once per step: PCT keys
  its table by ``MachineId.value`` (C-level hash) and finds the first-maximal
  machine in one loop with no key function; random inlines ``randrange``'s
  reject loop.  Same winners, same RNG consumption.
* **Probe-then-scan pending queries.**  ``has_pending_event`` /
  ``count_pending_events`` rule a type in or out with one ``in`` probe of the
  per-type counts (a subclass walk only on a miss) before any inbox scan; the
  modeled timer, which asks every round, calls the runtime directly.
* **Acyclic teardown, one owner.**  A finished execution is a web of
  back-pointers (runtime ↔ machines ↔ cached bound handlers, monitors and
  tracker ↔ runtime) only the cycle collector could free.  The callers that
  alone own a runtime (``TestingEngine.run``/``replay``, the shrinker) end it
  through :meth:`TestRuntime.run_and_release`, which cuts them so the graph
  dies by reference count: 130 → 17 collector-tracked garbage objects per
  ``exhaust-dfs`` execution (the residue is the harness's own cycle).  A
  runtime a user builds and calls ``run`` on is untouched, as is every ``gc`` knob.
* **Per-class construction.**  ``create_machine`` does no per-instance
  discovery (id = one frame + one dict update, spec and start context from the
  class cache, the fresh machine's ``StartEvent`` enqueued inline) and a bug
  materializes its log in one comprehension: 271 → 201 Python-level calls per
  re-created execution; ``tests/core/test_hotpath_calls.py`` bounds both counts.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, List, Optional

from ..config import TestingConfig
from ..coverage import CoverageTracker
from ..declarations import HandlerInfo
from ..errors import (
    BugError,
    FrameworkError,
    UnexpectedExceptionError,
)
from ..events import Event
from ..fingerprint import Fingerprint, FingerprintTracker
from ..ids import MachineId
from ..machine import Machine, MachineHaltRequested
from ..strategy.base import SchedulingStrategy
from ..trace import BOOLEAN, INTEGER, SCHEDULE, ScheduleTrace, TraceStep
from .kernel import _CONTROL_EVENTS, BugInfo, RuntimeKernel

#: ``tuple.__new__`` bound once: constructing a TraceStep through it skips
#: the generated NamedTuple ``__new__`` (a Python-level function) while
#: producing an identical object; used at the per-choice trace-record sites.
_new_step = tuple.__new__


class TestRuntime(RuntimeKernel):
    """Single-execution serialized runtime under scheduler control."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        strategy: SchedulingStrategy,
        config: Optional[TestingConfig] = None,
        coverage: Optional[CoverageTracker] = None,
    ) -> None:
        super().__init__(config, coverage)
        self.strategy = strategy
        # Fingerprint maintenance is opt-in (config) or strategy-demanded
        # (stateful search, feedback); the tracker must exist before
        # attach_runtime so strategies can observe state from step 0.
        if self.config.fingerprints or getattr(strategy, "wants_fingerprints", False):
            self._fingerprint = FingerprintTracker(self)
        strategy.attach_runtime(self)
        self.trace = ScheduleTrace()
        #: machine ids currently runnable, kept sorted ascending by id value
        #: (== creation order); maintained incrementally, never rebound.
        #: ``_enabled_values`` mirrors it with the raw integer values so the
        #: bisect maintenance compares C ints, not Python-level MachineId.
        self._enabled_ids: List[MachineId] = []
        self._enabled_values: List[int] = []
        #: immutable snapshot handed to strategies, rebuilt lazily only on
        #: steps where the enabled set actually changed.  A tuple, so a
        #: strategy that tries to mutate its argument fails loudly instead
        #: of corrupting the bookkeeping.
        self._enabled_snapshot: tuple = ()
        self._enabled_dirty = True

    @property
    def enabled_machine_ids(self) -> List[MachineId]:
        """Snapshot of the currently runnable machine ids (ascending id)."""
        return list(self._enabled_ids)

    def execution_fingerprint(self) -> Optional[Fingerprint]:
        """Current global-state fingerprint, or ``None`` when not tracked."""
        tracker = self._fingerprint
        return None if tracker is None else tracker.current()

    # ------------------------------------------------------------------
    # machine-facing services
    # ------------------------------------------------------------------
    def send_event(self, target: MachineId, event: Event, sender: Optional[MachineId] = None) -> None:
        # Hot path: one call per message sent.  Enqueue, the enabled-set rule
        # and coverage bookkeeping all happen in this frame
        # (ProductionRuntime.send_event is the other copy of the rule).
        if not isinstance(event, Event):
            raise FrameworkError(f"send expects an Event instance, got {event!r}")
        machine = self._machines_by_value.get(target.value)
        if machine is None:
            raise FrameworkError(f"send to unknown machine {target}")
        if machine._halted:
            if sender is not None:
                self._sink.append(("dropped {} -> {}: {!r} (target halted)", sender, target, event))
            else:
                self._sink.append(("dropped {}: {!r} (target halted)", target, event))
            return
        machine._inbox.append(event)
        event_type = type(event)
        counts = machine._pending_counts
        counts[event_type] = counts.get(event_type, 0) + 1
        if self._fingerprint is not None:
            self._fingerprint.on_enqueue(machine, event)
        if not machine._enabled:
            receive = machine._pending_receive
            if receive is None:
                # Deferred/ignored events add no work; every event does on
                # the (overwhelmingly common) discipline-free plain path.
                ctx = machine._state_ctx
                if ctx.plain or ctx.dequeuable(event_type):
                    self._mark_enabled(machine)
            elif receive.matches(event):
                self._mark_enabled(machine)
        if sender is not None:
            self._sink.append(("sent {} -> {}: {!r}", sender, target, event))
        else:
            self._sink.append(("sent {}: {!r}", target, event))
        if self.coverage is not None:
            self.coverage.events[event_type.__name__] += 1

    def next_boolean(self, requester: MachineId) -> bool:
        value = self.strategy.next_boolean(requester, self.step_count)
        # Inlined trace.add_boolean_choice; requester._str is the cached
        # str(), and tuple.__new__ skips the NamedTuple __new__ wrapper.
        self.trace.steps.append(
            _new_step(TraceStep, (BOOLEAN, 1 if value else 0, requester._str))
        )
        return value

    def next_integer(self, requester: MachineId, max_value: int) -> int:
        if max_value < 1:
            raise FrameworkError("next_integer requires max_value >= 1")
        value = self.strategy.next_integer(requester, max_value, self.step_count)
        self.trace.steps.append(_new_step(TraceStep, (INTEGER, value, requester._str)))
        return value

    # ------------------------------------------------------------------
    # enabled-set bookkeeping
    # ------------------------------------------------------------------
    # The runnability predicate (``Machine._has_work``) only changes when a
    # machine's inbox, coroutine or halted flag changes.  Inboxes of *other*
    # machines only ever grow during a step (sends/creates), which can only
    # enable them — handled at enqueue time by ``send_event``.  All
    # disabling mutations (dequeue, receive-wait, halt, inbox clear) happen
    # to the machine currently executing a step, so one recheck of that
    # machine after its step keeps the set exact.

    def _mark_enabled(self, machine: Machine) -> None:
        if not machine._enabled:
            machine._enabled = True
            value = machine._id.value
            index = bisect_left(self._enabled_values, value)
            self._enabled_values.insert(index, value)
            self._enabled_ids.insert(index, machine._id)
            self._enabled_dirty = True

    def _mark_disabled(self, machine: Machine) -> None:
        if machine._enabled:
            machine._enabled = False
            index = bisect_left(self._enabled_values, machine._id.value)
            del self._enabled_values[index]
            del self._enabled_ids[index]
            self._enabled_dirty = True

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, test_entry: Callable[["TestRuntime"], None]) -> Optional[BugInfo]:
        """Run one full execution of ``test_entry`` under scheduler control."""
        try:
            test_entry(self)
            self._execution_loop()
            if self._fingerprint is not None and self.coverage is not None:
                # Record the terminal state too (the loop observes the state
                # *before* each step, so quiescence/bound ends are not yet
                # covered).
                self.coverage.record_fingerprint(self._fingerprint.current().value)
            if self.bug is None:
                self._check_end_of_execution()
        except BugError as error:
            self._record_bug(error)
        except MachineHaltRequested:
            raise FrameworkError("halt() called outside of a machine handler")
        if self.bug is not None:
            # Materialize the deferred log exactly once: the bug report and
            # the replayable trace both carry it (JSON-saved traces replay
            # with their execution log intact).
            materialized = self.execution_log
            self.trace.log = materialized
            self.bug.trace = self.trace
            self.bug.log = list(materialized)
        return self.bug

    def run_and_release(self, test_entry: Callable[["TestRuntime"], None]) -> Optional[BugInfo]:
        """:meth:`run`, then teardown, for a caller that alone owns this runtime.

        The one release path (see *Acyclic teardown* above).  ``bug``,
        ``trace``, ``step_count``, ``termination_reason`` and the log stay
        readable; the machine and monitor tables do not.
        """
        try:
            return self.run(test_entry)
        finally:
            machines = list(self._machines_by_value.values())
            # Paused handlers are closed first, while the runtime is whole: a
            # ``finally:`` in user code runs here, inside its own execution.
            for machine in machines:
                if machine._coroutine is not None:
                    machine._coroutine.close()
                    machine._coroutine = None
            for machine in machines:
                machine._bound_handlers.clear()
                machine._runtime = None
            for monitor in self._monitors.values():
                monitor._runtime = None
            self._machines.clear()
            self._machines_by_value.clear()
            self._monitors.clear()
            self._fingerprint = None

    def _execution_loop(self) -> None:
        # Locals for everything touched once per step: attribute loads in this
        # loop are a measurable fraction of per-execution cost.
        enabled_ids = self._enabled_ids
        machines_by_value = self._machines_by_value
        strategy = self.strategy
        next_machine = strategy.next_machine
        trace_steps_append = self.trace.steps.append
        trace_states_append = self.trace.states.append
        sink_append = self._sink.append
        coverage = self.coverage
        coverage_handled = coverage.handled if coverage is not None else None
        tracker = self._fingerprint
        fingerprints_seen = (
            coverage.fingerprints if (tracker is not None and coverage is not None) else None
        )
        max_steps = self.config.max_steps
        step_count = self.step_count
        while step_count < max_steps:
            if not enabled_ids:
                self.termination_reason = "quiescence"
                return
            # A search replaying a prefix it has played before vouches that
            # this state's fingerprint is already in the coverage set; not
            # observing there is what lets the tracker stay unbuilt (or be
            # restored from a snapshot) until the execution turns new.
            if fingerprints_seen is not None and not strategy.state_known:
                fingerprints_seen.add(tracker.current().value)
            # Strategies receive an immutable snapshot, never the live list
            # the bookkeeping maintains; it is rebuilt only on steps where
            # the enabled set changed.
            if self._enabled_dirty:
                snapshot = self._enabled_snapshot = tuple(enabled_ids)
                self._enabled_dirty = False
            else:
                snapshot = self._enabled_snapshot
            chosen_id = next_machine(snapshot, step_count)
            machine = machines_by_value.get(chosen_id.value)
            if machine is None:
                raise FrameworkError(f"strategy chose unknown machine {chosen_id}")
            if not machine._enabled:
                # A known machine that is currently not runnable: scheduling
                # it would dequeue from an empty/unmatched inbox.  That is a
                # strategy bug, not a bug in the system under test.
                raise FrameworkError(
                    f"strategy chose disabled machine {chosen_id}; "
                    f"enabled machines: {[str(mid) for mid in enabled_ids]}"
                )
            # Inlined trace.add_scheduling_choice: a machine's schedule
            # record never changes and TraceStep is immutable, so every step
            # shares the one the machine's first step built.  The dispatch state (top
            # of the machine's state stack) is recorded in the parallel
            # ``states`` list so bug reports can show state context per
            # scheduling step.
            step = machine._schedule_step
            if step is None:
                step = machine._schedule_step = _new_step(
                    TraceStep, (SCHEDULE, chosen_id.value, chosen_id._str)
                )
            trace_steps_append(step)
            trace_states_append(machine._current_state)
            # step_count is mirrored back to the instance before any user
            # code can observe it (next_boolean/next_integer read it).
            step_count += 1
            self.step_count = step_count
            # One scheduled step, dispatch inlined (this block runs once per
            # scheduling decision; the call overhead of a _execute_step
            # helper is measurable at Table 2 execution counts).  The common
            # case — a plain event with a cached handler resolution — stays
            # in this frame; coroutine resumption, raised events, control
            # events and state disciplines take the helper/slow paths.
            try:
                if machine._coroutine is not None:
                    self._execute_coroutine_step(machine)
                else:
                    ctx = machine._state_ctx
                    if machine._raised:
                        # The local high-priority queue drains before the
                        # inbox and bypasses defer/ignore disciplines.
                        event = machine._raised.popleft()
                        event_type = type(event)
                        if tracker is not None:
                            tracker.on_raised_popleft(machine)
                    elif ctx.plain:
                        event = machine._inbox.popleft()
                        event_type = type(event)
                        # Inlined _dec_pending: this branch runs once per
                        # dispatched event, so the call overhead matters.
                        counts = machine._pending_counts
                        remaining = counts.get(event_type, 1) - 1
                        if remaining > 0:
                            counts[event_type] = remaining
                        else:
                            counts.pop(event_type, None)
                        if tracker is not None:
                            tracker.on_inbox_popleft(machine)
                    else:
                        event = self._dequeue_with_disciplines(machine, ctx)
                        event_type = type(event)
                    if isinstance(event, _CONTROL_EVENTS):
                        self._dispatch_control_event(machine, event)
                    else:
                        actions = ctx.actions
                        try:
                            info = actions[event_type]
                        except KeyError:
                            info = ctx.resolve(event_type)
                        if info is not None and info.__class__ is not HandlerInfo:
                            # DEFER/IGNORE classification can only reach
                            # dispatch for a *raised* event (dequeue already
                            # applied the disciplines): disciplines do not
                            # govern the raised queue, so fall back to
                            # handler-only resolution.
                            info = ctx.handler_only(event_type)
                        if info is None:
                            self._on_unhandled_event(machine, event, event_type)
                        else:
                            sink_append((
                                "{}: handling {!r} in state {!r}",
                                machine._id, event, machine._current_state,
                            ))
                            if coverage_handled is not None:
                                coverage_handled[
                                    (type(machine).__name__, machine._current_state,
                                     event_type.__name__)
                                ] += 1
                            # Bound handlers are cached per machine: a dict
                            # hit instead of descriptor lookup + bound-method
                            # allocation per dispatch.
                            name = info.method_name
                            handler = machine._bound_handlers.get(name)
                            if handler is None:
                                handler = getattr(machine, name)
                                machine._bound_handlers[name] = handler
                            result = handler(event) if info.wants_event else handler()
                            if result is not None:
                                self._maybe_start_coroutine(machine, result)
            except MachineHaltRequested:
                self._halt_machine(machine)
            except BugError as error:
                self._record_bug(error)
                return
            except FrameworkError:
                raise
            except Exception as exc:
                error = UnexpectedExceptionError(
                    f"{machine.id}: unexpected {type(exc).__name__}: {exc}"
                )
                error.__cause__ = exc
                self._record_bug(error)
                return
            # The executed machine is the only one whose state stack, public
            # attributes or paused/halted status can have changed during the
            # step (queue mutations were tracked eagerly at their sites), so
            # one touch keeps its fingerprint component exact.
            if tracker is not None:
                tracker.touch(machine)
            # The executed machine is the only one whose runnability can
            # have *decreased* during the step (sends to other machines only
            # enable, handled at enqueue time; state transitions change only
            # its own disciplines), so one recheck keeps the enabled set
            # exact.  The no-receive, no-discipline case of
            # Machine._has_work is unrolled here; blocked-in-receive and
            # discipline-filtered machines take the slow paths.
            if machine._halted:
                has_work = False
            elif machine._pending_receive is None:
                if machine._coroutine is not None or machine._raised:
                    has_work = True
                else:
                    ctx = machine._state_ctx
                    if ctx.plain:
                        has_work = bool(machine._inbox)
                    else:
                        has_work = ctx.any_dequeuable(machine._inbox)
            else:
                has_work = machine._has_work()
            if has_work:
                if not machine._enabled:
                    self._mark_enabled(machine)
            elif machine._enabled:
                self._mark_disabled(machine)
        self.termination_reason = "bound"
