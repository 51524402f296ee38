"""The concurrent production execution controller.

:class:`ProductionRuntime` runs the *same* machine programs the testing
controller explores, but on real concurrency: an asyncio event loop hosted in
a dedicated thread, with one run queue of runnable machines drained by one
pump callback.  Nothing about the programming model changes — machines still
own their state, communicate only through events, and block in ``yield
Receive`` — which is the paper's deployment story: the program that was
systematically tested is the program that serves traffic.

Execution model
---------------

* **One run queue, one pump.**  Runnable machines wait in a FIFO run queue;
  one ``call_soon`` callback, the pump, pops the head, runs *one* step of it
  in its own frame — selection, handler resolution and the handler call, the
  block ``TestRuntime._execution_loop`` holds — and re-appends it at the tail
  if it still has work, so each machine's events run strictly in order and
  machines interleave at every event boundary.  After ``_PUMP_SLICE`` events
  the pump re-schedules itself behind whatever else is ready: timer tasks,
  external sends, :meth:`join` probes and :meth:`shutdown` get the loop even
  while a machine self-sends forever, and their timing keeps cross-machine
  schedules nondeterministic.
* **Has work implies queued.**  ``machine._enabled`` is true exactly while
  the machine is on the run queue or being dispatched.  Work arrives only
  through :meth:`send_event`, the one delivery function (it applies the
  enable rule in its frame; ``create_machine`` and ``raise_event`` call
  ``_mark_enabled``), or the machine's own handler (the pump re-checks for
  work after each step), so an idle machine with work is a lost wake-up:
  :meth:`join` fails with a :class:`~repro.core.errors.FrameworkError`
  instead of hanging.
* **Thread-safe sends.**  Sends from machine handlers and timers run on the
  loop thread and deliver directly; sends from any other thread (external
  clients, load generators, :meth:`post_event`) hop onto the loop via
  ``call_soon_threadsafe`` and deliver there.  Per-machine FIFO ordering is
  preserved either way.
* **Monitors under a lock.**  Monitor notifications are serialized through an
  ``RLock`` so specification state stays consistent no matter which thread
  or task triggers them; monitor violations raise the same
  :class:`~repro.core.errors.SafetyViolationError` bugs as in testing and
  stop the system.
* **Real nondeterminism.**  ``random()`` / ``random_integer()`` /
  ``choose()`` draw from an ``os.urandom``-seeded RNG instead of the
  scheduling strategy; there is no schedule trace and no replay in this mode
  — that is what the testing controller is for.
* **Wall-clock timers.**  :class:`~repro.core.timer.TimerMachine` detects
  ``wall_clock`` runtimes and registers with the runtime's timer service
  instead of running its controlled-choice loop; ticks are produced by real
  ``asyncio.sleep`` timers (``tick_interval`` apart), still honoring the
  one-outstanding-tick rule and ``max_ticks``/``StopTimer`` semantics.

Lifecycle: :meth:`start` boots the system (the entry point runs on the
loop), :meth:`join` waits for quiescence / a bug / a timeout, and
:meth:`shutdown` stops the pump and the timers, runs the shared
end-of-execution checks (liveness monitors still hot, machines wedged in
receive) and returns the :class:`~repro.core.runtime.kernel.BugInfo` if
anything was violated.
:meth:`run` wraps the three for the common boot-drive-stop pattern.
"""

from __future__ import annotations

import os
import random
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, Optional

from ..config import TestingConfig
from ..declarations import HandlerInfo
from ..errors import BugError, FrameworkError, UnexpectedExceptionError
from ..events import Event, TimerTick
from ..ids import MachineId
from ..machine import Machine, MachineHaltRequested
from .kernel import _CONTROL_EVENTS, BugInfo, RuntimeKernel

if TYPE_CHECKING:
    from asyncio import AbstractEventLoop, Task

#: Events one pump turn dispatches before handing the loop back (~0.5 ms of
#: loop occupancy).  It only amortizes asyncio's per-turn cost (a handle, a
#: selector poll) and throughput is flat from ~8 up: a constant, not an option.
_PUMP_SLICE = 64


def _unexpected(machine: Machine, exc: Exception) -> UnexpectedExceptionError:
    error = UnexpectedExceptionError(f"{machine.id}: unexpected {type(exc).__name__}: {exc}")
    error.__cause__ = exc
    return error


class ProductionRuntime(RuntimeKernel):
    """Concurrent asyncio-backed runtime for deploying machine programs."""

    wall_clock = True

    def __init__(
        self,
        config: Optional[TestingConfig] = None,
        *,
        tick_interval: float = 0.005,
    ) -> None:
        # ``coverage`` and ``_fingerprint`` stay None for this runtime's life: the
        # pump and send_event carry none of their testing twins' per-event guards.
        super().__init__(config, coverage=None)
        #: seconds between wall-clock timer rounds (every registered
        #: TimerMachine shares this period; §3.3's point is precisely that
        #: correctness must not depend on its value).
        self.tick_interval = tick_interval
        #: machine id value -> number of events dispatched to that machine;
        #: the soak harnesses read it to assert genuine concurrency.
        self.dispatch_counts: Dict[int, int] = {}
        #: created in start(): an event loop holds selector file descriptors,
        #: so never-started runtimes must not allocate one.
        self._loop: Optional[AbstractEventLoop] = None
        self._loop_thread_id: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._monitor_lock = threading.RLock()
        self._rng = random.Random(int.from_bytes(os.urandom(16), "little"))
        #: pump turns taken; ``step_count / loop_turns`` is the batching achieved.
        self.loop_turns = 0
        #: high-water mark of the run queue, sampled once per pump turn.
        self.max_run_queue = 0
        #: runnable machines in dispatch order (see "Has work implies queued").
        self._run_queue: Deque[Machine] = deque()
        #: a pump callback is pending on the loop or running right now.
        self._pump_scheduled = False
        self._timer_tasks: Dict[int, Task] = {}
        #: external sends posted via call_soon_threadsafe that have not yet
        #: landed on the loop; quiescence cannot be declared while non-zero.
        #: Incremented from arbitrary client threads and decremented on the
        #: loop thread, so every mutation holds the lock.
        self._external_inflight = 0
        self._external_lock = threading.Lock()
        self._stopping = False
        self._started = False
        self._stopped = False
        #: set as soon as a bug is recorded / a framework error surfaces, so
        #: join() returns promptly instead of polling out its timeout.
        self._halted_event = threading.Event()
        self._framework_error: Optional[FrameworkError] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, entry: Callable[["ProductionRuntime"], None]) -> "ProductionRuntime":
        """Boot the system: run ``entry`` on the event loop and start serving."""
        if self._started:
            raise FrameworkError("ProductionRuntime.start() may only be called once")
        import asyncio  # deferred: a runtime that is never started never loads it

        self._started = True
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop_main, name="repro-production-loop", daemon=True
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(self._boot(entry), self._loop)
        try:
            future.result()
        except BaseException:
            # The entry point failed with a non-bug error (BugErrors are
            # recorded, see _boot): tear the loop thread down before
            # re-raising so a failed start leaks neither thread nor loop.
            self._stopped = True
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
            if not self._thread.is_alive():
                self._loop.close()
            raise
        return self

    def join(self, timeout: Optional[float] = None) -> bool:
        """Block until the system quiesces, fails, or ``timeout`` elapses.

        Returns True when the system reached quiescence (no machine has
        work, no external send is in flight, and no wall-clock timer can
        still fire) or was stopped by a bug; False on timeout.  Records the
        outcome in ``termination_reason`` ("quiescence", "stopped", or the
        testing step bound's analogue "bound" on timeout) so a subsequent
        :meth:`shutdown` applies the right end-of-execution rules — a system
        cut off mid-flight must not be judged by the quiescence rules.
        """
        if not self._started:
            raise FrameworkError("join() before start()")
        import asyncio
        from concurrent.futures import TimeoutError as ProbeTimeout  # plain TimeoutError on 3.11+

        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._halted_event.is_set():
                self.termination_reason = "stopped"
                return True
            probe = asyncio.run_coroutine_threadsafe(self._probe_quiescent(), self._loop)
            try:
                # Bounded wait: a handler that wedges the loop thread (the
                # deployed-code failure mode) must not turn join(timeout=N)
                # into an unbounded hang — the probe simply counts as "not
                # quiescent" until the deadline expires.
                if probe.result(timeout=1.0):
                    self.termination_reason = (
                        "stopped" if self._halted_event.is_set() else "quiescence"
                    )
                    return True
            except ProbeTimeout:
                probe.cancel()
            if deadline is not None and time.monotonic() >= deadline:
                self.termination_reason = "bound"
                return False
            self._halted_event.wait(0.01)

    def shutdown(self) -> Optional[BugInfo]:
        """Stop every task and the loop, run end-of-execution checks.

        Returns the recorded :class:`BugInfo` (monitor violation, unexpected
        exception, liveness-at-shutdown, deadlock) or None for a clean run.
        """
        if not self._started:
            raise FrameworkError("shutdown() before start()")
        if not self._stopped:
            import asyncio

            self._stopped = True
            stopper = asyncio.run_coroutine_threadsafe(self._stop_tasks(), self._loop)
            try:
                stopper.result(timeout=10.0)
            except Exception:
                # A wedged loop is diagnosed below (the thread fails to
                # join); cancellation noise from racing tasks is benign.
                pass
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
            if self._thread.is_alive():
                # Closing a still-running loop would raise an unrelated
                # RuntimeError; surface the actual problem instead.
                raise FrameworkError(
                    "production event loop failed to stop within 10s "
                    "(a machine handler is likely blocking the loop thread)"
                )
            self._loop.close()
        if self._framework_error is not None:
            raise self._framework_error
        if self.bug is None:
            if self.termination_reason is None:
                # shutdown() without a join(): the system was cut off at an
                # arbitrary point, which is the "bound" situation — claiming
                # quiescence would report spurious deadlocks for machines
                # that were merely still in flight.
                self.termination_reason = "bound"
            self._check_end_of_execution()
        if self.bug is not None and not self.bug.log:
            self.bug.log = self.execution_log
        return self.bug

    def run(
        self,
        entry: Callable[["ProductionRuntime"], None],
        *,
        timeout: float = 60.0,
    ) -> Optional[BugInfo]:
        """Boot ``entry``, wait for quiescence (or a bug/timeout), shut down."""
        self.start(entry)
        self.join(timeout)  # records termination_reason for shutdown()
        return self.shutdown()

    def _loop_main(self) -> None:
        import asyncio

        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    async def _boot(self, entry: Callable[["ProductionRuntime"], None]) -> None:
        self._loop_thread_id = threading.get_ident()
        try:
            entry(self)
        except MachineHaltRequested:
            raise FrameworkError("halt() called outside of a machine handler")
        except BugError as error:
            # Same contract as TestRuntime.run: a specification violation
            # raised while the entry point runs (e.g. a monitor's initial
            # entry action asserting) is a recorded bug, not a crash.
            self._record_bug(error)

    async def _stop_tasks(self) -> None:
        import asyncio

        self._stopping = True  # the pump observes it and stops re-scheduling
        for task in self._timer_tasks.values():
            task.cancel()
        await asyncio.gather(*self._timer_tasks.values(), return_exceptions=True)

    # ------------------------------------------------------------------
    # controller hooks
    # ------------------------------------------------------------------
    def _mark_enabled(self, machine: Machine) -> None:
        # Only ever called on the loop thread, and (its callers test
        # ``_enabled`` first) only for a machine that is neither queued nor
        # mid-dispatch, exactly when new work arrived for it.
        machine._enabled = True
        self._run_queue.append(machine)
        if not self._pump_scheduled:
            self._pump_scheduled = True
            self._loop.call_soon(self._pump)

    def _mark_disabled(self, machine: Machine) -> None:
        # A machine only halts inside its own dispatch; the pump clears the
        # flag when it sees the machine has no work left.
        pass

    def next_boolean(self, requester: MachineId) -> bool:
        return self._rng.random() < 0.5

    def next_integer(self, requester: MachineId, max_value: int) -> int:
        if max_value < 1:
            raise FrameworkError("next_integer requires max_value >= 1")
        return self._rng.randrange(max_value)

    def notify_monitor(self, monitor_cls: type, event: Event, source: Optional[MachineId] = None) -> None:
        # RuntimeKernel.notify_monitor's body, held in this frame under the lock.
        with self._monitor_lock:
            monitor = self._monitors.get(monitor_cls)
            if monitor is None:
                self.log("monitor {} not registered; dropping {!r}", monitor_cls.__name__, event)
                return
            self._sink.append(("monitor {} <- {!r} (from {})", monitor_cls.__name__, event, source))
            monitor.handle(event)

    def _record_bug(self, error: BugError) -> None:
        super()._record_bug(error)
        self.bug.log = self.execution_log
        self._stopping = True
        self._halted_event.set()

    def _fail(self, error: FrameworkError) -> None:
        if self._framework_error is None:
            self._framework_error = error
        self._stopping = True
        self._halted_event.set()

    # ------------------------------------------------------------------
    # machine creation / event delivery
    # ------------------------------------------------------------------
    def create_machine(
        self,
        machine_cls: type,
        *args: Any,
        name: str = "",
        creator: Optional[MachineId] = None,
        **kwargs: Any,
    ) -> MachineId:
        if self._loop is None:
            raise FrameworkError(
                "create_machine requires a started runtime "
                "(create machines from the entry point or from handlers)"
            )
        if (
            self._loop_thread_id is not None
            and threading.get_ident() != self._loop_thread_id
        ):
            raise FrameworkError(
                "create_machine must run on the runtime's event loop "
                "(create machines from the entry point or from handlers)"
            )
        return super().create_machine(machine_cls, *args, name=name, creator=creator, **kwargs)

    def send_event(self, target: MachineId, event: Event, sender: Optional[MachineId] = None) -> None:
        # The one delivery function, TestRuntime.send_event's twin: enqueue,
        # pending count and the enable rule (an idle machine becomes runnable
        # unless the event is deferred/ignored right now or fails the receive
        # the machine is blocked in) all happen in this frame.
        if not isinstance(event, Event):
            raise FrameworkError(f"send expects an Event instance, got {event!r}")
        if threading.get_ident() != self._loop_thread_id:
            self._post_external(target, event, sender)
            return
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
        if not machine._enabled:
            receive = machine._pending_receive
            if receive is None:
                ctx = machine._state_ctx
                runnable = ctx.plain or ctx.dequeuable(event_type)
            else:
                runnable = receive.matches(event)
            if runnable:  # _mark_enabled, in this frame too
                machine._enabled = True
                self._run_queue.append(machine)
                if not self._pump_scheduled:
                    self._pump_scheduled = True
                    self._loop.call_soon(self._pump)
        if sender is not None:
            self._sink.append(("sent {} -> {}: {!r}", sender, target, event))
        else:
            self._sink.append(("sent {}: {!r}", target, event))

    def post_event(self, target: MachineId, event: Event) -> None:
        """Thread-safe external send into the running system.

        The delivery hops onto the event loop, so callers on any thread can
        push load into the machines without synchronizing with them.
        """
        if not isinstance(event, Event):
            raise FrameworkError(f"post_event expects an Event instance, got {event!r}")
        self._post_external(target, event, None)

    def _post_external(self, target: MachineId, event: Event, sender: Optional[MachineId]) -> None:
        if not self._started or self._stopped:
            raise FrameworkError(
                "external sends require a started, not-yet-shut-down runtime"
            )
        with self._external_lock:
            self._external_inflight += 1
        try:
            self._loop.call_soon_threadsafe(self._deliver_external, target, event, sender)
        except RuntimeError as error:
            # Raced with shutdown() closing the loop between the guard above
            # and the post: surface the same clean error as the sequential
            # case instead of a raw "Event loop is closed" crash.
            with self._external_lock:
                self._external_inflight -= 1
            raise FrameworkError(
                "external sends require a started, not-yet-shut-down runtime"
            ) from error

    def _deliver_external(self, target: MachineId, event: Event, sender: Optional[MachineId]) -> None:
        try:
            self.send_event(target, event, sender)  # on the loop thread now
        except FrameworkError as error:
            self._fail(error)
        finally:
            with self._external_lock:
                self._external_inflight -= 1

    # ------------------------------------------------------------------
    # the pump
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        self.loop_turns += 1
        queue = self._run_queue
        self.max_run_queue = max(self.max_run_queue, len(queue))
        dispatch_counts = self.dispatch_counts
        sink_append = self._sink.append
        budget = _PUMP_SLICE
        while queue and budget and not self._stopping:
            budget -= 1
            machine = queue.popleft()
            # Machine._has_work's no-receive case, unrolled here and after the step.
            if machine._halted:
                has_work = False
            elif machine._pending_receive is not None:
                has_work = machine._has_work()
            elif machine._coroutine is not None or machine._raised:
                has_work = True
            elif machine._state_ctx.plain:
                has_work = bool(machine._inbox)
            else:
                has_work = machine._state_ctx.any_dequeuable(machine._inbox)
            if has_work:
                self.step_count += 1
                value = machine._id.value
                dispatch_counts[value] = dispatch_counts.get(value, 0) + 1
                # One machine step in this frame, as TestRuntime._execution_loop
                # holds it (kernel.py's dispatch-machinery header names the
                # tests that keep the two equal).
                try:
                    if machine._coroutine is not None:
                        self._execute_coroutine_step(machine)
                    else:
                        ctx = machine._state_ctx
                        if machine._raised:
                            event = machine._raised.popleft()
                            event_type = type(event)
                        elif ctx.plain:
                            event = machine._inbox.popleft()
                            event_type = type(event)
                            counts = machine._pending_counts  # _dec_pending, inlined
                            remaining = counts.get(event_type, 1) - 1
                            if remaining > 0:
                                counts[event_type] = remaining
                            else:
                                counts.pop(event_type, None)
                        else:
                            event = self._dequeue_with_disciplines(machine, ctx)
                            event_type = type(event)
                        if isinstance(event, _CONTROL_EVENTS):
                            self._dispatch_control_event(machine, event)
                        else:
                            try:
                                info = ctx.actions[event_type]
                            except KeyError:
                                info = ctx.resolve(event_type)
                            if info is not None and info.__class__ is not HandlerInfo:
                                # a *raised* event: disciplines do not govern it
                                info = ctx.handler_only(event_type)
                            if info is None:
                                self._on_unhandled_event(machine, event, event_type)
                            else:
                                sink_append(("{}: handling {!r} in state {!r}",
                                             machine._id, event, machine._current_state))
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
                    break
                except FrameworkError as error:
                    self._fail(error)
                    break
                except Exception as exc:
                    self._record_bug(_unexpected(machine, exc))
                    break
                # One event, then back to the tail: every other runnable
                # machine interleaves at event granularity — the production
                # analogue of a scheduling point after each dispatch.
                if machine._halted:
                    has_work = False
                elif machine._pending_receive is not None:
                    has_work = machine._has_work()
                elif machine._coroutine is not None or machine._raised:
                    has_work = True
                elif machine._state_ctx.plain:
                    has_work = bool(machine._inbox)
                else:
                    has_work = machine._state_ctx.any_dequeuable(machine._inbox)
                if has_work:
                    queue.append(machine)
                    continue
            machine._enabled = False
        if queue and not self._stopping:
            self._loop.call_soon(self._pump)
        else:
            self._pump_scheduled = False

    def _halt_machine(self, machine: Machine) -> None:
        super()._halt_machine(machine)
        timer_task = self._timer_tasks.pop(machine._id.value, None)
        if timer_task is not None:
            timer_task.cancel()

    # ------------------------------------------------------------------
    # wall-clock timer service
    # ------------------------------------------------------------------
    def start_wall_clock_timer(self, timer: Machine) -> None:
        value = timer._id.value
        existing = self._timer_tasks.get(value)
        if existing is not None and not existing.done():
            return
        self._timer_tasks[value] = self._loop.create_task(
            self._timer_loop(timer), name=f"timer-{timer._id}"
        )

    def stop_wall_clock_timer(self, timer: Machine) -> None:
        task = self._timer_tasks.get(timer._id.value)
        if task is not None:
            task.cancel()

    async def _timer_loop(self, timer: Machine) -> None:
        # Mirrors TimerMachine.run_loop with real sleeps in place of loop
        # self-messages: one round per tick_interval, at most one outstanding
        # tick, bounded by max_ticks, stopped by StopTimer/halt.  Ticks that
        # were already delivered when the timer stops remain in the target's
        # inbox — the documented "pending ticks may still be delivered" race
        # exists in production exactly as it does under testing.
        import asyncio

        try:
            while not self._stopping and timer.active and not timer._halted:
                if timer.max_ticks is not None and timer.rounds >= timer.max_ticks:
                    return
                await asyncio.sleep(self.tick_interval)
                if self._stopping or not timer.active or timer._halted:
                    return
                timer.rounds += 1
                if not self.has_pending_event(
                    timer.target, TimerTick, timer._tick_predicate
                ) and (timer.always_fire or self.next_boolean(timer._id)):
                    self.send_event(timer.target, TimerTick(timer.timer_name), timer._id)
        except asyncio.CancelledError:
            return
        # Anything else would die unseen with this task: route it as the pump does.
        except FrameworkError as error:
            self._fail(error)
        except BugError as error:
            self._record_bug(error)
        except Exception as exc:
            self._record_bug(_unexpected(timer, exc))

    def active_machine_count(self) -> int:
        """Machines that dispatched beyond their start event.

        Every created machine dispatches at least its ``StartEvent``, so a
        bare "did it dispatch anything" tally is vacuously the machine
        count; requiring a second dispatch counts machines that actually
        participated in the run's event traffic.
        """
        return sum(1 for count in self.dispatch_counts.values() if count > 1)

    # ------------------------------------------------------------------
    # quiescence probing
    # ------------------------------------------------------------------
    async def _probe_quiescent(self) -> bool:
        # Runs on the loop between pump turns, so per-machine _has_work is
        # exact here.  Live wall-clock timer tasks are future event sources,
        # so the system is not quiescent while any survive (they end on
        # max_ticks/StopTimer/halt).
        if self._stopping:
            return True
        if self._run_queue or self._external_inflight:
            return False
        if not all(task.done() for task in self._timer_tasks.values()):
            return False
        for machine in self._machines.values():
            if machine._has_work():
                self._fail(FrameworkError(
                    f"{machine.id} has work but is not on the run queue "
                    f"(lost wake-up: the has-work-implies-queued invariant is broken)"
                ))
                break  # join() sees the failure and reports "stopped"
        return True
