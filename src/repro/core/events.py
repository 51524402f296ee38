"""Event types exchanged between machines.

Events are plain Python objects.  Subclass :class:`Event` and add whatever
payload fields the event carries; the base class provides a readable ``repr``
and value-style equality, which makes traces and test assertions pleasant to
work with.
"""

from __future__ import annotations

from typing import Any


class Event:
    """Base class for every event exchanged between machines.

    Subclasses typically set payload attributes in ``__init__``::

        class ClientRequest(Event):
            def __init__(self, payload):
                self.payload = payload
    """

    def _fields(self) -> dict[str, Any]:
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}

    def __repr__(self) -> str:
        public = [f"{k}={v!r}" for k, v in vars(self).items() if not k.startswith("_")]
        fields = ", ".join(public)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[union-attr]

    def __hash__(self) -> int:
        return hash((type(self), tuple(sorted(self._fields().items(), key=lambda kv: kv[0]))))


class Halt(Event):
    """Built-in event that terminates the receiving machine.

    Sending :class:`Halt` to a machine asks it to stop: when the event is
    dequeued the machine's ``on_halt`` hook runs and the machine is removed
    from the set of schedulable machines.  Events sent to a halted machine are
    silently dropped (and logged), mirroring message loss to a dead node.
    """


class StartEvent(Event):
    """Internal event delivered to a machine when it starts executing.

    Machine creation is asynchronous: creating a machine enqueues a
    :class:`StartEvent` in the new machine's inbox, and the scheduler decides
    when the machine actually begins running its ``on_start`` hook.  This
    makes machine start-up itself an explored interleaving, exactly as in P#.
    """


class TimerTick(Event):
    """Generic timeout event produced by the modeled :class:`~repro.core.timer.TimerMachine`."""

    def __init__(self, timer_name: str = "timer") -> None:
        self.timer_name = timer_name


class Receive:
    """Yielded from a generator handler to block until a matching event arrives.

    Example::

        def on_start(self):
            request = yield Receive(ClientRequest)
            ...

    ``event_types`` restricts which event classes satisfy the receive; an
    optional ``predicate`` adds a further filter on the event instance.  The
    machine is only schedulable while a matching event sits in its inbox.

    ``predicate`` must be a pure function of the event it is given: the
    runtime maintains the enabled set incrementally and evaluates the
    predicate when an event is *enqueued*, so a predicate whose answer
    depends on mutable state outside the event could leave a machine's
    runnability stale.  (No modeled system should need such a predicate —
    machines share no state by construction.)
    """

    def __init__(self, *event_types: type, predicate=None) -> None:
        if not event_types:
            raise ValueError("Receive requires at least one event type")
        for event_type in event_types:
            if not (isinstance(event_type, type) and issubclass(event_type, Event)):
                raise TypeError(f"Receive expects Event subclasses, got {event_type!r}")
        self.event_types = event_types
        self.predicate = predicate

    def matches(self, event: Event) -> bool:
        if not isinstance(event, self.event_types):
            return False
        if self.predicate is not None and not self.predicate(event):
            return False
        return True

    def __repr__(self) -> str:
        names = ", ".join(t.__name__ for t in self.event_types)
        return f"Receive({names})"
