"""The machine programming model.

A :class:`Machine` is a state machine with an inbox.  Machines communicate
exclusively by sending events to each other's :class:`~repro.core.ids.MachineId`;
the runtime owns every inbox and decides, at each step, which machine runs
next.  During systematic testing that decision — along with every value
returned from :meth:`Machine.random`, :meth:`Machine.random_integer` and
:meth:`Machine.choose` — is a controlled nondeterministic choice.

Handlers are ordinary methods registered with
:func:`~repro.core.declarations.on_event`.  A handler may be a plain function
(run to completion) or a generator function that yields
:class:`~repro.core.events.Receive` to block until a matching event arrives,
which is how request/response protocols are written without manual
continuation passing.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional, Sequence, TYPE_CHECKING

from .declarations import StateMachineSpec, StateRef, build_spec
from .errors import FrameworkError
from .events import Event, Receive
from .ids import MachineId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime.kernel import RuntimeKernel


class MachineHaltRequested(Exception):
    """Internal control-flow exception raised by :meth:`Machine.halt`."""


def _dec_pending(counts: dict, event_type: type) -> None:
    """Decrement the per-type pending count for one dequeued/dropped event.

    Every inbox removal site calls this so that
    :meth:`RuntimeKernel.count_pending_events` /
    :meth:`RuntimeKernel.has_pending_event` can answer type-only queries
    from the counts instead of scanning the inbox.  Entries are deleted at
    zero to keep the dict as small as the set of queued event types.
    """
    remaining = counts.get(event_type, 1) - 1
    if remaining > 0:
        counts[event_type] = remaining
    else:
        counts.pop(event_type, None)


class Machine:
    """Base class for all machines (harness machines and wrapped components).

    Subclasses declare their behaviour with nested
    :class:`~repro.core.declarations.State` classes (the State DSL)::

        class Server(Machine):
            class Listening(State, initial=True):
                deferred = (SyncReport,)       # keep queued until un-deferred
                ignored = (Noise,)             # drop at dequeue time

                @on_event(ClientRequest)
                def handle_request(self, event):
                    self.goto(Server.Closing)

            class Closing(State):
                def on_entry(self):
                    ...

    An ``@on_event`` handler on the machine body applies in every state that
    does not resolve the event itself; a machine that declares no ``State``
    sits in the single implicit state ``"init"``.  Subclasses may override:

    * ``on_start(*args, **kwargs)`` — runs when the machine starts; receives
      the arguments passed to :meth:`create`.
    * ``on_halt()`` — runs when the machine halts.

    Class attributes:

    * ``ignore_unhandled_events`` — if true, events without a handler in the
      current state are dropped instead of being reported as a bug.
    """

    ignore_unhandled_events: bool = False

    _spec_cache: dict = {}

    def __init__(self, runtime: "RuntimeKernel", machine_id: MachineId) -> None:
        self._runtime = runtime
        self._id = machine_id
        #: ``(args, kwargs)`` for ``on_start``; ``create_machine`` sets it.
        self._start_args: tuple = ((), {})
        #: the trace record of "this machine was scheduled", built by the
        #: first step that schedules it and shared by every later one.
        self._schedule_step = None
        self._inbox: deque[Event] = deque()
        #: per-event-type tallies of the inbox contents, maintained at every
        #: enqueue/dequeue so type-only pending queries are O(#types), not
        #: O(inbox length).  Keys are exact event classes.
        self._pending_counts: dict = {}
        self._halted = False
        self._coroutine = None
        self._pending_receive: Optional[Receive] = None
        #: mirror of this machine's membership in the runtime's enabled set;
        #: maintained by the runtime (its ``send_event`` holds the enable rule).
        self._enabled = False
        #: per-instance handle on the (class-cached) spec, so dispatch and
        #: transitions skip a dict lookup per event; the classification
        #: context for the current stack (shared per class, cached per stack
        #: tuple) is swapped by the runtime on every transition.  Only a
        #: class's first instance needs the ``spec()`` frame.
        spec = self._spec = Machine._spec_cache.get(self.__class__) or self.__class__.spec()
        initial, self._state_ctx = spec.start
        #: P#-style state stack (bottom .. top); ``goto`` replaces the top,
        #: ``push_state``/``pop_state`` grow and shrink it.
        self._state_stack = [initial]
        #: mirror of ``_state_stack[-1]`` (dispatch reads it once per event).
        self._current_state = initial
        #: monotonic count of goto/push/pop transitions; lets machine start-up
        #: tell "never left the initial state" from "left and came back".
        self._transition_count = 0
        #: local high-priority queue filled by :meth:`raise_event`; drained
        #: before the inbox and never subject to defer/ignore disciplines.
        self._raised: deque[Event] = deque()
        #: bound handler methods, cached by method name on first dispatch
        #: (avoids descriptor lookup + bound-method allocation per event).
        self._bound_handlers: dict = {}

    # ------------------------------------------------------------------
    # class-level metadata
    # ------------------------------------------------------------------
    @classmethod
    def spec(cls) -> StateMachineSpec:
        """The static state-machine description of this class (cached)."""
        cached = Machine._spec_cache.get(cls)
        if cached is None:
            cached = build_spec(cls)
            initial = cached.initial_state
            cached.start = (initial, cached.context_for((initial,)))
            Machine._spec_cache[cls] = cached
        return cached

    # ------------------------------------------------------------------
    # identity and state
    # ------------------------------------------------------------------
    @property
    def id(self) -> MachineId:
        return self._id

    @property
    def current_state(self) -> str:
        """Name of the active state (the top of the state stack)."""
        return self._current_state

    @property
    def state_stack(self) -> tuple:
        """The state stack bottom-to-top (a one-element tuple without pushes)."""
        return tuple(self._state_stack)

    @property
    def is_halted(self) -> bool:
        return self._halted

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def on_start(self, *args: Any, **kwargs: Any):
        """Hook invoked when the machine starts.  May be a generator."""

    def on_halt(self) -> None:
        """Hook invoked when the machine halts."""

    # ------------------------------------------------------------------
    # communication
    # ------------------------------------------------------------------
    def send(self, target: MachineId, event: Event) -> None:
        """Enqueue ``event`` in ``target``'s inbox (non-blocking)."""
        self._runtime.send_event(target, event, self._id)

    def create(self, machine_cls: type, *args: Any, name: str = "", **kwargs: Any) -> MachineId:
        """Create a new machine and return its id.

        The new machine starts asynchronously: its ``on_start`` hook runs only
        when the scheduler chooses to run it, so creation itself is part of
        the explored interleavings.
        """
        return self._runtime.create_machine(machine_cls, *args, name=name, creator=self._id, **kwargs)

    def goto(self, state: StateRef) -> None:
        """Transition this machine to ``state``, running exit/entry actions.

        ``state`` is a state name or a nested :class:`~repro.core.declarations.State`
        subclass.  With a state stack in place, ``goto`` replaces the top of
        the stack (the states below are unaffected).
        """
        self._runtime.transition_machine(self, state)

    def push_state(self, state: StateRef) -> None:
        """Push ``state`` onto the state stack and enter it.

        The current state is paused, not exited: its exit action does not
        run, and events it handles (or defers/ignores) that the pushed state
        does not resolve itself are still governed by it — P#'s handler
        inheritance through the state stack.  :meth:`pop_state` returns to
        it without re-running its entry action.
        """
        self._runtime.push_machine_state(self, state)

    def pop_state(self) -> None:
        """Pop the top of the state stack, running its exit action."""
        self._runtime.pop_machine_state(self)

    def raise_event(self, event: Event) -> None:
        """Queue ``event`` on this machine's local high-priority queue.

        Raised events are dispatched before anything in the inbox and are
        never deferred or ignored (they bypass the queue disciplines, like
        P#'s ``raise``).  They are handled by ordinary handlers; a raised
        event no state handles is an unhandled-event bug as usual.  A
        machine blocked in a :class:`Receive` is *not* woken by a raised
        event — raised events are dispatched, never received — so the queue
        drains only once the receive has been satisfied.
        """
        if not isinstance(event, Event):
            raise FrameworkError(f"raise_event expects an Event instance, got {event!r}")
        if self._halted:
            return
        self._raised.append(event)
        tracker = self._runtime._fingerprint
        if tracker is not None:
            tracker.on_raise(self, event)
        if not self._enabled and self._pending_receive is None:
            self._runtime._mark_enabled(self)

    def halt(self) -> None:
        """Halt this machine.  Control does not return to the handler."""
        raise MachineHaltRequested()

    # ------------------------------------------------------------------
    # controlled nondeterminism
    # ------------------------------------------------------------------
    def random(self) -> bool:
        """A controlled fair boolean choice (the P# ``Nondet()``)."""
        return self._runtime.next_boolean(self._id)

    def random_integer(self, max_value: int) -> int:
        """A controlled integer choice in ``[0, max_value)``."""
        return self._runtime.next_integer(self._id, max_value)

    def choose(self, options: Sequence[Any]) -> Any:
        """Pick one element of ``options`` under scheduler control."""
        options = list(options)
        if not options:
            raise FrameworkError("choose() requires a non-empty sequence")
        return options[self._runtime.next_integer(self._id, len(options))]

    def count_pending(self, target: MachineId, event_type: type, predicate=None) -> int:
        """Number of matching events currently queued at ``target``.

        Environment-model machines use this to avoid flooding a component's
        inbox with redundant periodic messages (heartbeats, sync reports,
        timer ticks): sending a new one only when the previous one has been
        consumed models a sender whose period is much longer than the
        receiver's processing time, and keeps queue growth bounded without
        removing any interleaving of *distinct* events.
        """
        return self._runtime.count_pending_events(target, event_type, predicate)

    # ------------------------------------------------------------------
    # specification
    # ------------------------------------------------------------------
    def assert_that(self, condition: bool, message: str = "") -> None:
        """Local safety assertion; a falsy ``condition`` is a safety bug."""
        self._runtime.check_assertion(condition, message, source=str(self._id))

    def notify_monitor(self, monitor_cls: type, event: Event) -> None:
        """Synchronously notify a registered monitor of ``event``."""
        self._runtime.notify_monitor(monitor_cls, event, source=self._id)

    # ------------------------------------------------------------------
    # logging
    # ------------------------------------------------------------------
    def log(self, message: str) -> None:
        """Record a message in the execution log (shown in bug traces).

        The message is captured lazily: the final ``"<id>: <message>"``
        string is only built if the log is materialized (bug found, or
        ``verbose`` mirroring enabled).
        """
        self._runtime.log("{}: {}", self._id, message)

    # ------------------------------------------------------------------
    # runtime-facing helpers (not part of the user API)
    # ------------------------------------------------------------------
    def _has_work(self) -> bool:
        if self._halted:
            return False
        if self._pending_receive is not None:
            return any(self._pending_receive.matches(event) for event in self._inbox)
        if self._coroutine is not None:
            # Paused at a plain ``yield`` (an explicit scheduling point): the
            # machine can resume as soon as the scheduler picks it again.
            return True
        if self._raised:
            return True
        ctx = self._state_ctx
        if ctx.plain:
            return bool(self._inbox)
        return ctx.any_dequeuable(self._inbox)

    def _dequeue_matching(self, receive: Receive) -> Event:
        for index, event in enumerate(self._inbox):
            if receive.matches(event):
                del self._inbox[index]
                _dec_pending(self._pending_counts, type(event))
                tracker = self._runtime._fingerprint
                if tracker is not None:
                    tracker.on_inbox_remove(self, index)
                return event
        raise FrameworkError(f"{self._id}: no event matching {receive} in inbox")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self._id} state={self._current_state!r}>"
