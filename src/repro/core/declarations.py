"""Declarative state-machine metadata for machines and monitors.

Machines declare nested :class:`State` subclasses carrying their handlers and
per-state event disciplines, exactly like P# machines declare
``[OnEventDoAction]`` / ``[DeferEvents]`` / ``[IgnoreEvents]`` attributes on
state classes; :func:`build_spec` lowers a class to its
:class:`StateMachineSpec`::

    >>> from repro.core.events import Event
    >>> class Knock(Event): pass
    >>> class Wind(Event): pass
    >>> class Door:
    ...     class Closed(State, initial=True):
    ...         deferred = (Wind,)            # keep in inbox until un-deferred
    ...         @on_event(Knock)
    ...         def open_up(self, event):
    ...             self.goto(Door.Open)
    ...     class Open(State):
    ...         ignored = (Knock,)            # drop silently at dequeue time
    ...         @on_event(Wind)
    ...         def blow_shut(self, event):
    ...             self.goto(Door.Closed)
    ...         def on_entry(self):
    ...             pass
    >>> spec = build_spec(Door)
    >>> spec.initial_state
    'Closed'
    >>> sorted(spec.states)
    ['Closed', 'Open']
    >>> ctx = spec.context_for(('Closed',))
    >>> ctx.dequeuable(Wind)                  # deferred: not dequeuable
    False
    >>> ctx.dequeuable(Knock)
    True
    >>> spec.context_for(('Open',)).resolve(Knock) is IGNORE
    True

An ``@on_event`` handler on the machine body itself is machine-wide: it
applies in every state that does not resolve the event itself (including
every state of the P#-style state *stack*, see
:meth:`StateMachineSpec.context_for`).  A class that declares no
:class:`State` at all has the single implicit state ``"init"``.  The metadata
collected here is also what :mod:`repro.core.statistics` inspects to produce
the Table 1 modeling-cost statistics.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Tuple, Union

#: Sentinel state name used for handlers that apply to every state.
ANY_STATE = "*"

_HANDLER_ATTR = "_repro_event_handlers"
#: per-class set of attribute names hoisted from nested State bodies; the
#: spec builder must skip them (the functions still carry their @on_event
#: metadata, which would otherwise re-register them as wildcard handlers
#: when a subclass's spec walks this class's dict).
_HOISTED_ATTR = "_repro_hoisted_names"


class _Discipline:
    """Classification sentinel returned by :meth:`StateContext.resolve`."""

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:
        return f"<{self._name}>"


#: Classification of an event the current state keeps queued for later.
DEFER = _Discipline("DEFER")
#: Classification of an event the current state drops at dequeue time.
IGNORE = _Discipline("IGNORE")


class State:
    """Base class for first-class state declarations nested in a machine.

    Subclass :class:`State` *inside* a machine (or monitor) class body and
    declare, per state:

    * event handlers with :func:`on_event` (the enclosing state is implied);
    * ``deferred = (EventT, ...)`` — events kept in the inbox, invisible to
      dequeue, until a transition to a state that no longer defers them;
    * ``ignored = (EventT, ...)`` — events silently dropped at dequeue time;
    * ``on_entry(self)`` / ``on_exit(self)`` methods — entry and exit actions
      (run with the *machine* as ``self``, like every handler).

    Class keywords:

    * ``initial=True`` marks the machine's start state (exactly one per
      class that declares states; a subclass inherits its base's);
    * ``name="..."`` overrides the state's name (defaults to the class name);
    * ``hot=True`` marks a liveness-monitor state as hot.
    """

    #: Event types kept queued (not dequeuable) while this state is active.
    deferred: tuple = ()
    #: Event types silently dropped at dequeue time while this state is active.
    ignored: tuple = ()

    def __init_subclass__(
        cls, *, name: Optional[str] = None, initial: bool = False, hot: bool = False, **kwargs
    ) -> None:
        super().__init_subclass__(**kwargs)
        cls._state_name = name if name is not None else cls.__name__
        cls._state_initial = bool(initial)
        cls._state_hot = bool(hot)

    def __init__(self) -> None:  # pragma: no cover - declaration-only class
        raise TypeError(
            f"State subclass {type(self).__name__} is declarative and is never instantiated"
        )


#: What ``goto``/``push_state`` accept: a state name or a State subclass.
StateRef = Union[str, type]


def resolve_state_name(state: StateRef) -> str:
    """The state name denoted by ``state`` (a string or a State subclass)."""
    if isinstance(state, str):
        return state
    if isinstance(state, type) and issubclass(state, State):
        return state._state_name
    raise TypeError(f"expected a state name or State subclass, got {state!r}")


def on_event(*event_types: type) -> Callable:
    """Register the decorated method as the handler for ``event_types``.

    Inside a :class:`State` body the handler is scoped to that state; on the
    machine body it applies in any state that does not resolve the event
    itself.
    """
    if not event_types:
        raise TypeError("on_event requires at least one event type")

    def decorator(func: Callable) -> Callable:
        setattr(func, _HANDLER_ATTR, [*getattr(func, _HANDLER_ATTR, ()), *event_types])
        return func

    return decorator


@dataclass
class HandlerInfo:
    """A single (state, event-type) -> method binding."""

    method_name: str
    event_type: type
    state: str
    wants_event: bool


class StateContext:
    """Event classification for one configuration of the state stack.

    A machine's runnability and dequeue selection depend on its *effective*
    event disciplines: the state stack is consulted top-down, and within each
    state the most-derived declaration for the event's type wins (handler,
    ``deferred`` or ``ignored`` — whichever names the closest base in the
    event's MRO).  A state that says nothing about an event passes it down
    the stack (P#'s handler inheritance through pushed states); wildcard
    machine-level handlers are the final fallback.

    Contexts are built and cached per stack tuple by
    :meth:`StateMachineSpec.context_for` and shared across machine instances
    of the same class, so classification of a given event type in a given
    stack costs one dict lookup after the first resolution.
    """

    __slots__ = ("spec", "stack", "plain", "actions")

    def __init__(self, spec: "StateMachineSpec", stack: Tuple[str, ...]) -> None:
        self.spec = spec
        self.stack = stack
        #: memoized ``event_type -> HandlerInfo | DEFER | IGNORE | None``.
        self.actions: dict = {}
        #: True when no state in the stack declares disciplines, i.e. every
        #: inbox event is dequeuable and the runtime may use the plain
        #: ``popleft`` fast path.
        self.plain = not any(
            spec.deferred.get(state) or spec.ignored.get(state) for state in stack
        )

    def resolve(self, event_type: type):
        """Classify ``event_type`` under this stack; memoized."""
        action = None
        # Runtime-control events (Halt, StartEvent) are never governed by
        # user disciplines: deferring or ignoring them would wedge the
        # machine's lifecycle, so they always dequeue.
        if not is_control_event(event_type):
            deferred = self.spec.deferred
            ignored = self.spec.ignored
            handlers = self.spec.handlers
            for state in reversed(self.stack):
                state_deferred = deferred.get(state)
                state_ignored = ignored.get(state)
                for base in event_type.__mro__:
                    info = handlers.get((state, base))
                    if info is not None:
                        action = info
                        break
                    if state_deferred is not None and base in state_deferred:
                        action = DEFER
                        break
                    if state_ignored is not None and base in state_ignored:
                        action = IGNORE
                        break
                if action is not None:
                    break
            if action is None:
                for base in event_type.__mro__:
                    info = handlers.get((ANY_STATE, base))
                    if info is not None:
                        action = info
                        break
        self.actions[event_type] = action
        return action

    def handler_only(self, event_type: type) -> Optional[HandlerInfo]:
        """Resolve a handler ignoring disciplines (used for raised events)."""
        handlers = self.spec.handlers
        for state in reversed(self.stack):
            for base in event_type.__mro__:
                info = handlers.get((state, base))
                if info is not None:
                    return info
        for base in event_type.__mro__:
            info = handlers.get((ANY_STATE, base))
            if info is not None:
                return info
        return None

    def dequeuable(self, event_type: type) -> bool:
        """Whether an event of ``event_type`` can be dequeued in this stack.

        Deferred events are invisible to dequeue; ignored events do not make
        the machine runnable either (they are dropped lazily, while scanning
        past them towards a dequeuable event).  Unhandled events *are*
        dequeuable — consuming them raises the unhandled-event bug or drops
        them under ``ignore_unhandled_events``, either way making progress.
        """
        action = self.actions.get(event_type, _UNRESOLVED)
        if action is _UNRESOLVED:
            action = self.resolve(event_type)
        return action is not DEFER and action is not IGNORE

    def any_dequeuable(self, inbox: Iterable) -> bool:
        """Whether at least one event in ``inbox`` is dequeuable."""
        actions = self.actions
        for event in inbox:
            event_type = type(event)
            action = actions.get(event_type, _UNRESOLVED)
            if action is _UNRESOLVED:
                action = self.resolve(event_type)
            if action is not DEFER and action is not IGNORE:
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<StateContext {self.spec.owner_name} stack={self.stack!r}>"


#: Private marker distinguishing "not yet resolved" from a cached ``None``.
_UNRESOLVED = _Discipline("UNRESOLVED")


def is_control_event(event_type: type) -> bool:
    """True for framework control events (``Halt``/``StartEvent``).

    Control events are always dequeuable — they bypass the defer/ignore
    disciplines — so tooling that reasons about handleability (notably
    :mod:`repro.analysis`) must treat them specially, exactly as the
    dispatch path in :class:`StateContext` does.
    """
    from .events import Halt, StartEvent  # late import: events has no deps on us

    return issubclass(event_type, (Halt, StartEvent))


@dataclass
class StateMachineSpec:
    """Static description of a machine or monitor class.

    ``handlers`` maps ``(state, event_type)`` to :class:`HandlerInfo`;
    ``entry_actions``/``exit_actions`` map state name to method name;
    ``deferred``/``ignored`` map state name to a frozenset of event types;
    ``initial_state`` is the one state declared ``initial=True`` — or
    ``"init"``, the implicit single state of a class that declares no
    :class:`State`; ``hot_states`` are the states declared ``hot=True``.
    """

    owner_name: str
    handlers: dict = field(default_factory=dict)
    entry_actions: dict = field(default_factory=dict)
    exit_actions: dict = field(default_factory=dict)
    deferred: dict = field(default_factory=dict)
    ignored: dict = field(default_factory=dict)
    initial_state: str = "init"
    #: State subclasses by state name (empty for a class that declares none).
    state_classes: dict = field(default_factory=dict)
    #: states declared hot via ``class X(State, hot=True)`` (monitors only).
    hot_states: frozenset = frozenset()
    #: memoized ``stack tuple -> StateContext``, shared across instances.
    _context_cache: dict = field(default_factory=dict, repr=False, compare=False)
    #: ``(initial state, its StateContext)`` every new machine instance starts
    #: from; set once per class by ``Machine.spec()``.
    start: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def states(self) -> set:
        found = set()
        for state, _event_type in self.handlers:
            if state != ANY_STATE:
                found.add(state)
        found.update(self.entry_actions)
        found.update(self.exit_actions)
        found.update(self.deferred)
        found.update(self.ignored)
        found.update(self.state_classes)
        found.add(self.initial_state)
        return found

    @property
    def action_handler_count(self) -> int:
        """Number of distinct action handlers (event handlers + entry/exit)."""
        methods = {info.method_name for info in self.handlers.values()}
        methods.update(self.entry_actions.values())
        methods.update(self.exit_actions.values())
        return len(methods)

    @property
    def deferred_event_count(self) -> int:
        """Total (state, deferred event type) declarations (Table 1 column)."""
        return sum(len(types) for types in self.deferred.values())

    @property
    def ignored_event_count(self) -> int:
        """Total (state, ignored event type) declarations (Table 1 column)."""
        return sum(len(types) for types in self.ignored.values())

    def context_for(self, stack: Tuple[str, ...]) -> StateContext:
        """The (cached) :class:`StateContext` for one state-stack tuple."""
        context = self._context_cache.get(stack)
        if context is None:
            context = StateContext(self, stack)
            self._context_cache[stack] = context
        return context


def _wants_event(func: Callable) -> bool:
    parameters = [
        p
        for p in inspect.signature(func).parameters.values()
        if p.name != "self" and p.kind not in (p.VAR_KEYWORD, p.VAR_POSITIONAL)
    ]
    return len(parameters) >= 1


def _iter_state_functions(state_cls: type):
    """Every function defined on ``state_cls`` or its State bases, base-first."""
    for klass in reversed(state_cls.__mro__):
        if klass in (object, State):
            continue
        yield from vars(klass).items()


def _collect_state(spec: StateMachineSpec, owner: type, state_cls: type) -> None:
    """Lower one nested State declaration into ``spec``.

    Handler/entry/exit functions are hoisted onto the owner class under
    mangled attribute names, so dispatch binds them exactly like machine-wide
    handlers (``getattr(machine, method_name)``) and the runtime's
    bound-method cache keeps working unchanged.
    """
    state_name = state_cls._state_name
    spec.state_classes[state_name] = state_cls

    for tuple_name in ("deferred", "ignored"):
        for event_type in getattr(state_cls, tuple_name):
            if not isinstance(event_type, type):
                raise TypeError(
                    f"{owner.__name__}.{state_cls.__name__}: {tuple_name} entries "
                    f"must be event types, got {event_type!r}"
                )
    deferred = frozenset(state_cls.deferred)
    ignored = frozenset(state_cls.ignored)
    if deferred & ignored:
        overlap = ", ".join(sorted(t.__name__ for t in deferred & ignored))
        raise TypeError(
            f"{owner.__name__}.{state_cls.__name__}: {overlap} declared both "
            f"deferred and ignored"
        )
    # Assign-or-clear rather than merge: a subclass redeclaring a state of
    # the same name replaces its disciplines wholesale.
    if deferred:
        spec.deferred[state_name] = deferred
    else:
        spec.deferred.pop(state_name, None)
    if ignored:
        spec.ignored[state_name] = ignored
    else:
        spec.ignored.pop(state_name, None)

    hoisted = owner.__dict__[_HOISTED_ATTR]

    for attr_name, attr in _iter_state_functions(state_cls):
        if isinstance(attr, type) and issubclass(attr, State):
            # Catch a mis-indented sibling state before it silently vanishes.
            raise TypeError(
                f"{owner.__name__}.{state_cls.__name__}.{attr_name}: states do "
                f"not nest — declare every State directly on the machine body"
            )
        if not callable(attr):
            continue
        event_types = getattr(attr, _HANDLER_ATTR, ())
        if (
            not event_types
            and attr_name not in ("on_entry", "on_exit")
            and inspect.isfunction(attr)
            and not attr_name.startswith("__")
        ):
            # A plain method in a State body would silently never be hoisted
            # onto the machine; fail at declaration time instead of with an
            # AttributeError at dispatch time.
            raise TypeError(
                f"{owner.__name__}.{state_cls.__name__}.{attr_name}: State "
                f"bodies may only declare @on_event handlers and on_entry/"
                f"on_exit actions; define helper methods on the machine class"
            )
        mangled = f"_state_{state_name}_{attr_name}"
        hoisted.add(mangled)
        for event_type in event_types:
            if event_type in deferred or event_type in ignored:
                discipline = "deferred" if event_type in deferred else "ignored"
                raise TypeError(
                    f"{owner.__name__}.{state_cls.__name__}: {event_type.__name__} "
                    f"is both {discipline} and handled by {attr_name}"
                )
            setattr(owner, mangled, attr)
            spec.handlers[(state_name, event_type)] = HandlerInfo(
                method_name=mangled,
                event_type=event_type,
                state=state_name,
                wants_event=_wants_event(attr),
            )
        if attr_name == "on_entry":
            setattr(owner, mangled, attr)
            spec.entry_actions[state_name] = mangled
        elif attr_name == "on_exit":
            setattr(owner, mangled, attr)
            spec.exit_actions[state_name] = mangled

    if state_cls._state_hot:
        spec.hot_states = spec.hot_states | {state_name}


#: Class attributes that used to name the start state and the hot states,
#: with the State keyword that replaced each.  A left-over one would be
#: silently ignored and the machine would start (or turn hot) elsewhere.
_REMOVED_ATTRS = {"initial_state": "initial=True", "hot_states": "hot=True"}


def build_spec(cls: type) -> StateMachineSpec:
    """Collect the declaration metadata of ``cls`` and its bases.

    Nested :class:`State` subclasses and machine-wide ``@on_event`` handlers
    lower here.  Later (more derived) declarations override earlier ones
    binding the same (state, event type).
    """
    spec = StateMachineSpec(owner_name=cls.__name__)
    # Names hoisted onto ancestor classes by *their* spec builds...
    hoisted_names: set = set()
    for klass in cls.__mro__[1:]:
        hoisted_names.update(vars(klass).get(_HOISTED_ATTR, ()))
    # ...plus the live set for ``cls`` itself: _collect_state adds to it as
    # states found in *base* classes hoist onto ``cls`` during this very
    # walk, and those copies must not be re-scanned when the walk reaches
    # ``cls``'s own dict (their @on_event metadata would re-register them as
    # wildcard handlers — and make the spec depend on spec-build order).
    hoisted_live = cls.__dict__.get(_HOISTED_ATTR)
    if hoisted_live is None:
        hoisted_live = set()
        setattr(cls, _HOISTED_ATTR, hoisted_live)
    initial = None
    for klass in reversed(cls.__mro__):
        initial_here = []
        names_here: dict = {}
        # _collect_state hoists handler functions onto ``cls`` while we walk
        # its MRO, so iterate over a snapshot of each class dict.
        for attr_name, attr in list(vars(klass).items()):
            if attr_name in hoisted_names or attr_name in hoisted_live:
                continue
            if attr_name in _REMOVED_ATTRS:
                raise TypeError(
                    f"{klass.__name__}.{attr_name} is not read: declare the state "
                    f"as `class X(State, {_REMOVED_ATTRS[attr_name]})` instead"
                )
            if isinstance(attr, type) and issubclass(attr, State) and attr is not State:
                duplicate = names_here.get(attr._state_name)
                if duplicate is not None:
                    raise TypeError(
                        f"{klass.__name__}: duplicate state name "
                        f"{attr._state_name!r} ({duplicate.__name__} and {attr.__name__})"
                    )
                names_here[attr._state_name] = attr
                _collect_state(spec, cls, attr)
                if attr._state_initial:
                    initial_here.append(attr._state_name)
                continue
            if not callable(attr):
                continue
            for event_type in getattr(attr, _HANDLER_ATTR, ()):
                spec.handlers[(ANY_STATE, event_type)] = HandlerInfo(
                    method_name=attr_name,
                    event_type=event_type,
                    state=ANY_STATE,
                    wants_event=_wants_event(attr),
                )
        if len(initial_here) > 1:
            raise TypeError(
                f"{klass.__name__}: more than one initial state declared "
                f"({', '.join(sorted(initial_here))})"
            )
        if initial_here:
            initial = initial_here[0]
    if initial is not None:
        spec.initial_state = initial
    elif spec.state_classes:
        # Starting in the implicit "init" would report the first event as an
        # unhandled-event bug in the system under test.
        raise TypeError(
            f"{cls.__name__} declares states ({', '.join(sorted(spec.state_classes))}) "
            f"but marks none `initial=True`"
        )
    # A subclass redeclaring state S replaces S's disciplines but inherits
    # the base S's handlers, so "handled and deferred/ignored" can arise
    # across classes even though _collect_state rejects it within one body.
    for discipline_name, table in (("deferred", spec.deferred), ("ignored", spec.ignored)):
        for state_name, event_types in table.items():
            for event_type in event_types:
                info = spec.handlers.get((state_name, event_type))
                if info is not None:
                    raise TypeError(
                        f"{cls.__name__}: {event_type.__name__} in state "
                        f"{state_name!r} is both {discipline_name} and handled "
                        f"by {info.method_name}"
                    )
    return spec


def iter_handled_event_types(spec: StateMachineSpec) -> Iterable[type]:
    seen = set()
    for (_state, event_type) in spec.handlers:
        if event_type not in seen:
            seen.add(event_type)
            yield event_type
