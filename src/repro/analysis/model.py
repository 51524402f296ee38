"""Data model for the static analyzer (Layer 1 output).

The extractor (:mod:`repro.analysis.extract`) summarizes each machine or
monitor class into a :class:`MachineModel`: its states, the transition edges
its handlers can take, every ``send``/``raise_event``/``notify_monitor`` site
with the event type and target machine type *where statically resolvable*,
and the per-state defer/ignore disciplines already carried by the
:class:`~repro.core.declarations.StateMachineSpec`.

Anything the extractor cannot resolve degrades to ``None`` ("unknown") —
checkers must treat unknown as "could be anything" and stay silent, so the
analyzer never reports a false positive on dynamically-computed event types,
targets or state references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.declarations import StateMachineSpec

#: Transition kinds recorded on :class:`TransitionEdge`.
GOTO = "goto"
PUSH = "push"


@dataclass(frozen=True)
class SourceRef:
    """A ``file:line`` anchor for one extracted fact (and its diagnostic)."""

    file: str
    line: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.file}:{self.line}"


@dataclass
class SendSite:
    """One ``self.send(target, event)`` call in a handler body."""

    event_type: Optional[type]
    target: Optional[type]  # target machine class; None when unresolvable
    states: Tuple[str, ...]  # states the enclosing method can run in
    method: str
    ref: SourceRef
    event_expr: str
    #: the event expression is the handler's received-event parameter
    #: (event forwarding: the sender re-sends an event it was delivered)
    forwards_param: bool = False
    #: the send provably executes on *every* run of its method: it sits under
    #: no ``if``/loop/``try`` and the method contains no early ``return`` or
    #: ``raise`` (a must-fact, used by the unbounded-send-cycle rule)
    unconditional: bool = False
    #: event-constructor field names the site populates (empty when the
    #: event expression is not a constructor call)
    payload_fields: Tuple[str, ...] = ()
    #: field names the method may attach to the event *after* construction
    #: (``evt = E(...); evt.extra = ...``), when the event argument is a
    #: local name; a flow-insensitive may-set
    payload_extra: Tuple[str, ...] = ()
    #: syntactic shape of the target expression, for the independence table:
    #: ``("self", "")`` | ``("attr", name)`` | ``("attr_item", name)`` |
    #: ``("class", qualified-name)`` | ``("event_field", name)`` (the target
    #: is read off the received event's payload) | ``("unknown", "")``
    target_expr: Tuple[str, str] = ("unknown", "")


@dataclass
class RaiseSite:
    """One ``self.raise_event(event)`` call (handler-only delivery)."""

    event_type: Optional[type]
    states: Tuple[str, ...]
    method: str
    ref: SourceRef
    event_expr: str
    unconditional: bool = False
    payload_fields: Tuple[str, ...] = ()
    payload_extra: Tuple[str, ...] = ()


@dataclass
class NotifySite:
    """One ``self.notify_monitor(MonitorCls, event)`` call."""

    monitor: Optional[type]
    event_type: Optional[type]
    states: Tuple[str, ...]
    method: str
    ref: SourceRef
    payload_fields: Tuple[str, ...] = ()
    payload_extra: Tuple[str, ...] = ()


@dataclass
class QuerySite:
    """One ``self.count_pending(target, ...)`` (or the runtime's
    ``count_pending_events``/``has_pending_event``) call: a cross-machine
    *read* of another machine's inbox."""

    target_expr: Tuple[str, str]  # same shape grammar as SendSite.target_expr
    method: str
    ref: SourceRef


@dataclass
class TransitionEdge:
    """A ``goto``/``push_state`` edge; ``dst is None`` means unresolvable."""

    src: str  # state name or ANY_STATE for helpers/wildcard handlers
    dst: Optional[str]
    kind: str  # GOTO or PUSH
    method: str
    ref: SourceRef


@dataclass
class PopSite:
    """One ``self.pop_state()`` call."""

    states: Tuple[str, ...]
    method: str
    ref: SourceRef


@dataclass
class CreateSite:
    """One ``self.create(MachineCls, ...)`` call."""

    machine: Optional[type]
    method: str
    ref: SourceRef


@dataclass
class NondetSite:
    """A source of uncontrolled nondeterminism inside a handler body.

    Test-mode handlers must be deterministic functions of the delivered
    event and machine state: wall-clock reads, OS entropy, the global
    ``random`` module, and unordered-set iteration with framework effects
    all break replay, shrinking and fingerprint stability.  These are
    must-facts (the call/loop is syntactically present), so the lint fires
    without whole-program gating.
    """

    reason: str
    method: str
    ref: SourceRef


#: alias keys are ``("name", local_var)`` or ``("attr", self_attribute)``
AliasKey = Tuple[str, str]


@dataclass
class AliasSend:
    """A send/raise whose event argument is a reusable variable."""

    key: AliasKey
    event_type: Optional[type]
    forwards_param: bool
    method: str
    ref: SourceRef
    #: the send sits inside a loop whose body never rebinds the variable,
    #: so every iteration delivers the *same* event instance
    loop_reuses_instance: bool = False


@dataclass
class AliasMutation:
    """An in-place mutation (``x.f = ...``, ``x[k] = ...``, ``x.f.append``)."""

    key: AliasKey
    method: str
    ref: SourceRef


@dataclass
class AliasRetention:
    """The sender stores the variable on ``self`` (``self.Y = x``)."""

    key: AliasKey
    method: str
    ref: SourceRef


@dataclass
class MachineModel:
    """Static summary of one machine or monitor class."""

    cls: type
    kind: str  # "machine" | "monitor"
    spec: StateMachineSpec
    module: str
    file: str
    line: int
    initial: str
    #: last source line of the class body (0 when the source is unavailable);
    #: bounds the span the unused-ignore pragma scan walks for this class
    end_line: int = 0
    ignore_unhandled: bool = False
    sends: List[SendSite] = field(default_factory=list)
    raises: List[RaiseSite] = field(default_factory=list)
    notifies: List[NotifySite] = field(default_factory=list)
    edges: List[TransitionEdge] = field(default_factory=list)
    pops: List[PopSite] = field(default_factory=list)
    creates: List[CreateSite] = field(default_factory=list)
    #: event types matched by ``yield Receive(...)`` anywhere in the class
    receive_types: Set[type] = field(default_factory=set)
    #: a ``Receive(...)`` argument did not resolve — any event may be received
    receives_unknown: bool = False
    #: monitor hot states (declared ``hot=True``)
    hot_states: Set[str] = field(default_factory=set)
    #: method name -> states it is bound to (handlers + entry/exit actions);
    #: unbound helpers map to {ANY_STATE}
    method_states: Dict[str, Set[str]] = field(default_factory=dict)
    #: method name -> source anchor (for dead-handler diagnostics)
    method_refs: Dict[str, SourceRef] = field(default_factory=dict)
    #: methods containing a ``self.halt()`` call (a halt always terminates
    #: the dispatch, so it breaks unbounded-send cycles)
    method_halts: Set[str] = field(default_factory=set)
    #: own methods each method calls (``self.helper(...)``), for the
    #: independence footprint's call-graph closure
    method_calls: Dict[str, Set[str]] = field(default_factory=dict)
    #: cross-machine inbox queries (count_pending / has_pending_event)
    queries: List[QuerySite] = field(default_factory=list)
    #: methods whose body we could not prove free of uncontrolled effects
    #: (calls into non-framework objects, payload mutation, leaking ``self``);
    #: dispatches reaching such a method degrade to dependent-with-everything
    method_external: Set[str] = field(default_factory=set)
    #: method name -> payload field names read off the received-event
    #: parameter (``event.f`` loads); ``None`` when the parameter escapes
    #: (rebound, stored, passed to a call) so any field may be read.
    #: Methods without an event parameter map to an empty frozenset.
    handler_field_reads: Dict[str, Optional[FrozenSet[str]]] = field(default_factory=dict)
    #: uncontrolled-nondeterminism sites (determinism lint)
    nondet_sites: List[NondetSite] = field(default_factory=list)
    #: method name -> ``self.X`` attributes it (re)assigns; an ``("attr", X)``
    #: footprint item is only resolvable at choice time when no method in the
    #: dispatch closure reassigns ``X``
    method_attr_stores: Dict[str, Set[str]] = field(default_factory=dict)
    #: method name -> confined container attributes whose *membership* the
    #: method may extend with values not provably fresh-created; an
    #: ``("attr_item", X)`` footprint item (send target drawn from the
    #: members of ``self.X``) is only resolvable at choice time when no
    #: method in the dispatch closure can grow ``X`` mid-dispatch
    method_container_stores: Dict[str, Set[str]] = field(default_factory=dict)
    #: Machine/Monitor classes referenced anywhere in this class's methods
    referenced: Set[type] = field(default_factory=set)
    #: ``self.X`` -> machine class, when every assignment to ``X`` is a
    #: ``self.create(Cls, ...)`` call resolving to the same class
    attr_targets: Dict[str, type] = field(default_factory=dict)
    #: ``self.X`` -> event type, when every assignment is ``EventCls(...)``
    attr_event_types: Dict[str, type] = field(default_factory=dict)
    #: raw facts for the payload-alias checker
    alias_sends: List[AliasSend] = field(default_factory=list)
    alias_mutations: List[AliasMutation] = field(default_factory=list)
    alias_retentions: List[AliasRetention] = field(default_factory=list)
    #: some method source was unavailable or unparseable; the model is an
    #: under-approximation and reachability-style checks must be skipped
    partial: bool = False

    @property
    def name(self) -> str:
        return self.cls.__name__

    @property
    def all_states(self) -> Set[str]:
        return self.spec.states

    @property
    def has_unknown_transitions(self) -> bool:
        return self.partial or any(edge.dst is None for edge in self.edges)

    def pretty_method(self, method: str) -> str:
        """Human form of a (possibly mangled, spec-hoisted) handler name."""
        for state in self.method_states.get(method, ()):
            prefix = f"_state_{state}_"
            if method.startswith(prefix):
                return f"{state}.{method[len(prefix):]}"
        return method

    def state_ref(self, state: str) -> SourceRef:
        """Anchor for ``state``: its DSL class when one exists, else the
        machine class itself."""
        import inspect

        state_cls = self.spec.state_classes.get(state)
        if state_cls is not None:
            try:
                _, lineno = inspect.getsourcelines(state_cls)
                return SourceRef(self.file, lineno)
            except (OSError, TypeError):
                pass
        return SourceRef(self.file, self.line)


class ProgramModel:
    """The set of extracted machine models for one analysis run."""

    def __init__(self) -> None:
        self.machines: Dict[type, MachineModel] = {}

    def add(self, model: MachineModel) -> None:
        self.machines[model.cls] = model

    def model_for(self, cls: type) -> Optional[MachineModel]:
        return self.machines.get(cls)

    def __iter__(self):
        return iter(self.machines.values())

    def __len__(self) -> int:
        return len(self.machines)
