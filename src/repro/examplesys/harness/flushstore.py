"""Flush-store harness: the State DSL's event disciplines, end to end.

A small write-ahead store models the §2.2 environment style with the P#-like
state disciplines the FAST'16 harnesses rely on:

* **push/pop** — a ``FlushRequest`` *pushes* the ``Flushing`` state over
  ``Active``; flush completion pops back.  ``Read`` requests keep being
  answered while flushing because ``Flushing`` inherits ``Active``'s handler
  through the state stack.
* **defer** — ``Flushing`` defers ``Write``: writes stay queued, in order,
  and are applied only after the pop un-defers them.
* **ignore** — ``Flushing`` ignores duplicate ``FlushRequest``s.

Three registered scenarios turn each discipline into a checkable property:

* ``examplesys/flush-deferred-writes`` — the DSL store; the
  :class:`FlushSafetyMonitor` proves *absent* the write-during-flush bug that
  the flat model cannot avoid without bespoke bookkeeping.
* ``examplesys/flush-flat-write-during-flush`` — :class:`FlatFlushStoreMachine`,
  the single-state port of the same protocol: with no way to defer, its
  hand-rolled "flushing" flag applies writes mid-flush and the safety monitor
  catches it.
* ``examplesys/flush-lost-completion-deadlock`` — the DSL store with a lost
  flush-completion interrupt: writes stay deferred forever and the runtime
  reports the deferred-backlog deadlock (a wedge the flat model would
  silently mask by misapplying the writes).
"""

from __future__ import annotations

from typing import Callable, List

from repro.core import Event, Machine, MachineId, Monitor, State, TestRuntime, on_event
from repro.core.registry import scenario


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------
class Write(Event):
    def __init__(self, value: int) -> None:
        self.value = value


class FlushRequest(Event):
    """Ask the store to flush its in-memory log to disk."""


class FlushComplete(Event):
    """Modeled disk interrupt: the asynchronous flush finished."""


class Read(Event):
    def __init__(self, client: MachineId) -> None:
        self.client = client


class ReadReply(Event):
    def __init__(self, committed: int, pending: int) -> None:
        self.committed = committed
        self.pending = pending


class NotifyWriteApplied(Event):
    def __init__(self, value: int) -> None:
        self.value = value


class NotifyFlushStarted(Event):
    pass


class NotifyFlushCompleted(Event):
    pass


# ---------------------------------------------------------------------------
# specification
# ---------------------------------------------------------------------------
class FlushSafetyMonitor(Monitor):
    """No write may be applied while a flush is in progress."""

    class Idle(State, initial=True):
        @on_event(NotifyFlushStarted)
        def flush_started(self) -> None:
            self.goto(FlushSafetyMonitor.InFlush)

        @on_event(NotifyWriteApplied)
        def write_ok(self, event: NotifyWriteApplied) -> None:
            pass

        @on_event(NotifyFlushCompleted)
        def spurious_completion(self) -> None:
            self.assert_that(False, "flush completed while no flush was in progress")

    class InFlush(State):
        @on_event(NotifyWriteApplied)
        def write_during_flush(self, event: NotifyWriteApplied) -> None:
            self.assert_that(
                False, f"write {event.value} applied while a flush is in progress"
            )

        @on_event(NotifyFlushStarted)
        def nested_flush(self) -> None:
            self.assert_that(False, "flush started while another flush is in progress")

        @on_event(NotifyFlushCompleted)
        def flush_completed(self) -> None:
            self.goto(FlushSafetyMonitor.Idle)


# ---------------------------------------------------------------------------
# the store, State-DSL form
# ---------------------------------------------------------------------------
class FlushStoreMachine(Machine):
    """Write-ahead store whose flush mode is a pushed state."""

    def on_start(self, lose_completion: bool = False) -> None:
        self.memlog: List[int] = []
        self.disk: List[int] = []
        #: seeded wedge: model a disk whose completion interrupt gets lost.
        self.lose_completion = lose_completion

    class Active(State, initial=True):
        @on_event(Write)
        def apply_write(self, event: Write) -> None:
            self.memlog.append(event.value)
            self.notify_monitor(FlushSafetyMonitor, NotifyWriteApplied(event.value))

        @on_event(FlushRequest)
        def start_flush(self) -> None:
            self.push_state(FlushStoreMachine.Flushing)

        @on_event(Read)
        def answer_read(self, event: Read) -> None:
            self.send(event.client, ReadReply(len(self.disk), len(self.memlog)))

    class Flushing(State):
        #: writes arriving mid-flush stay queued until the pop un-defers them.
        deferred = (Write,)
        #: a flush is already running; duplicate requests are dropped.
        ignored = (FlushRequest,)
        # ``Read`` is answered by Active's handler, inherited down the stack.

        def on_entry(self) -> None:
            self.notify_monitor(FlushSafetyMonitor, NotifyFlushStarted())
            if not self.lose_completion:
                self.send(self.id, FlushComplete())

        @on_event(FlushComplete)
        def finish_flush(self) -> None:
            self.disk.extend(self.memlog)
            self.memlog = []
            self.notify_monitor(FlushSafetyMonitor, NotifyFlushCompleted())
            self.pop_state()


# ---------------------------------------------------------------------------
# the store, flat: one state, no disciplines
# ---------------------------------------------------------------------------
class FlatFlushStoreMachine(Machine):
    """The same protocol without state disciplines.

    A flat machine cannot defer: every ``Write`` is dispatched the moment the
    scheduler picks the store, so the hand-rolled ``self.flushing`` flag can
    only choose between applying mid-flush (this model — unsound, caught by
    the monitor) or dropping/re-sending (which reorders the write stream).
    """

    class Active(State, initial=True):
        """The store's one state; its handlers are machine-wide."""

    def on_start(self) -> None:
        self.memlog: List[int] = []
        self.disk: List[int] = []
        self.flushing = False

    @on_event(Write)
    def apply_write(self, event: Write) -> None:
        # BUG (inexpressible discipline): applied even while a flush runs.
        self.memlog.append(event.value)
        self.notify_monitor(FlushSafetyMonitor, NotifyWriteApplied(event.value))

    @on_event(FlushRequest)
    def start_flush(self) -> None:
        if self.flushing:
            return  # hand-rolled "ignore"
        self.flushing = True
        self.notify_monitor(FlushSafetyMonitor, NotifyFlushStarted())
        self.send(self.id, FlushComplete())

    @on_event(FlushComplete)
    def finish_flush(self) -> None:
        self.disk.extend(self.memlog)
        self.memlog = []
        self.flushing = False
        self.notify_monitor(FlushSafetyMonitor, NotifyFlushCompleted())

    @on_event(Read)
    def answer_read(self, event: Read) -> None:
        self.send(event.client, ReadReply(len(self.disk), len(self.memlog)))


# ---------------------------------------------------------------------------
# the client
# ---------------------------------------------------------------------------
class FlushClientMachine(Machine):
    """Issues writes, nondeterministically interleaved flushes, and reads."""

    def on_start(self, store: MachineId, num_writes: int = 4):
        self.store = store
        self.replies = 0
        for index in range(num_writes):
            self.send(self.store, Write(index))
            yield  # scheduling point: the store may run now
            if self.random():
                self.send(self.store, FlushRequest())
                yield
        self.send(self.store, Read(self.id))
        yield
        self.send(self.store, FlushRequest())

    class Init(State, initial=True):
        @on_event(ReadReply)
        def count_reply(self, event: ReadReply) -> None:
            self.replies += 1


class WedgingClientMachine(Machine):
    """Deterministic Write / Flush / Write sequence for the wedge scenario.

    The flush is guaranteed to be dequeued before the second write, so with a
    lost completion the store always ends the execution holding a deferred
    ``Write`` — and a ``Read`` that must still be answered from the pushed
    state, via stack inheritance, even though the store is wedged.
    """

    def on_start(self, store: MachineId):
        self.store = store
        self.replies = 0
        self.send(store, Write(0))
        self.send(store, FlushRequest())
        self.send(store, Write(1))
        self.send(store, Read(self.id))

    class Init(State, initial=True):
        @on_event(ReadReply)
        def count_reply(self, event: ReadReply) -> None:
            self.replies += 1


# ---------------------------------------------------------------------------
# test entries and registered scenarios
# ---------------------------------------------------------------------------
def build_flush_test(
    store_cls: type = FlushStoreMachine,
    num_writes: int = 4,
    lose_completion: bool = False,
) -> Callable[[TestRuntime], None]:
    def test_entry(runtime: TestRuntime) -> None:
        runtime.register_monitor(FlushSafetyMonitor)
        if store_cls is FlushStoreMachine:
            store = runtime.create_machine(store_cls, lose_completion, name="Store")
        else:
            store = runtime.create_machine(store_cls, name="Store")
        if lose_completion:
            runtime.create_machine(WedgingClientMachine, store, name="Client")
        else:
            runtime.create_machine(FlushClientMachine, store, num_writes, name="Client")

    return test_entry


@scenario(
    "examplesys/flush-deferred-writes",
    tags=("examplesys", "flushstore", "dsl", "clean"),
    max_steps=600,
)
def flush_deferred_scenario():
    """DSL store: deferred writes make write-during-flush provably absent."""
    return build_flush_test(FlushStoreMachine)


@scenario(
    "examplesys/flush-flat-write-during-flush",
    tags=("examplesys", "flushstore", "safety", "bug"),
    expected_bug="WriteDuringFlush",
    expected_bug_kind="safety",
    max_steps=600,
)
def flush_flat_bug_scenario():
    """Flat store: without defer, writes land mid-flush and the monitor fires."""
    return build_flush_test(FlatFlushStoreMachine)


@scenario(
    "examplesys/flush-lost-completion-deadlock",
    tags=("examplesys", "flushstore", "deadlock", "bug"),
    expected_bug="LostFlushCompletion",
    expected_bug_kind="deadlock",
    max_steps=600,
)
def flush_wedge_scenario():
    """DSL store with a lost disk interrupt: deferred-backlog deadlock."""
    return build_flush_test(FlushStoreMachine, lose_completion=True)
