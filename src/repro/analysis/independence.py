"""Static independence facts for dependence-aware schedule search.

Two pending dispatches *commute* when executing them in either order reaches
the same program state and enables the same bugs.  This module derives a
conservative per-``(machine class, event type)`` **footprint** from the
extraction layer, split into the machines a dispatch
can *write* (send to, halt) and the machines it only *reads* (inbox
queries), plus the monitors it can notify and whether it allocates machine
ids.  The ``dpor-lite`` strategy resolves these symbolic footprints against
the live machine table at every scheduling point and treats two dispatches
as independent only when a write of one provably cannot touch anything the
other reads or writes — read/read overlaps commute.

The discipline matches the analyzer's never-guess rule, inverted for safety:
anything unresolvable degrades to **dependent**.  A method that calls into
an object the model does not confine, leaks ``self``, mutates a payload, or
targets a machine we cannot name makes its whole footprint *opaque* — an
opaque dispatch conflicts with everything, so pruning never skips a schedule
it cannot prove redundant.

Footprint item grammar (JSON-safe, see :func:`build_independence_table`):

- ``"self"`` — the dispatching machine itself
- ``{"attr": name}`` — the machine stored the target id on ``self.<name>``;
  resolved via ``getattr`` at choice time (sound because only a machine's own
  dispatches rebind its attributes, and any attribute the dispatch closure
  itself rebinds degrades the footprint to opaque)
- ``{"attr-values": name}`` — the target is drawn from the members of the
  confined container ``self.<name>`` (``self.peers[k]`` / ``self.peers.get(k)``);
  resolved at choice time to *every* machine id the container holds — a sound
  superset, provided no method in the dispatch closure can grow the container
  with non-fresh values mid-dispatch (checked statically, else opaque)
- ``{"class": qualname}`` — a freshly created machine of that class
- ``{"event-field": name}`` — the target id is carried in the
  dispatched event's payload (``self.send(event.requester, ...)``); resolved
  at choice time by reading the field off the machine's head event.  Sound
  because a sleeping machine's head event cannot change (sends append at the
  back, raised events drain first, disciplines depend only on the sleeper's
  own state), and any other dispatch that could mutate the payload object is
  itself opaque (payload mutation degrades its method to external).  Emitted
  only for sites in handler methods directly registered for the dispatched
  event type — helper methods may receive a different second argument.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.events import Halt, StartEvent

from .model import MachineModel, ProgramModel

#: table format version, bumped on any incompatible change
TABLE_VERSION = 2


def type_key(cls: type) -> str:
    """Stable JSON key for a class: ``module.QualName``."""
    return f"{cls.__module__}.{cls.__qualname__}"


# ---------------------------------------------------------------------------
# closure computation
# ---------------------------------------------------------------------------
def _seed_methods(model: MachineModel, event_type: type) -> Set[str]:
    """Handler methods the dispatch of ``event_type`` enters directly (the
    methods whose event parameter *is* the dispatched event)."""
    seeds: Set[str] = set()
    for (_state, registered), info in model.spec.handlers.items():
        if registered is event_type or (
            isinstance(registered, type) and issubclass(event_type, registered)
        ):
            seeds.add(info.method_name)
    if event_type is StartEvent and "on_start" in model.method_refs:
        seeds.add("on_start")
    return seeds


def _dispatch_methods(model: MachineModel, event_type: type) -> Optional[Set[str]]:
    """Every own method a dispatch of ``event_type`` can reach, or ``None``
    when the closure escapes the analyzable method set."""
    seeds = _seed_methods(model, event_type)
    # a handler may transition, so entry/exit actions are always reachable
    seeds.update(model.spec.entry_actions.values())
    seeds.update(model.spec.exit_actions.values())
    if event_type is Halt or any(m in model.method_halts for m in _closure(model, seeds)):
        if "on_halt" in model.method_refs:
            seeds.add("on_halt")
    closure = _closure(model, seeds)
    for name in closure:
        if name not in model.method_refs:
            return None  # calls something we never extracted
    return closure


def _closure(model: MachineModel, seeds: Iterable[str]) -> Set[str]:
    seen: Set[str] = set()
    frontier: List[str] = list(seeds)
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        frontier.extend(model.method_calls.get(name, ()))
    return seen


# ---------------------------------------------------------------------------
# footprints
# ---------------------------------------------------------------------------
def _monitor_is_transparent(
    program: ProgramModel, monitor: type, event_type: Optional[type]
) -> bool:
    """Monitor handlers run inline during ``notify_monitor``; their effects
    stay monitor-local only when the notified handler closure is effect-clean."""
    model = program.model_for(monitor)
    if model is None or model.partial or event_type is None:
        return False
    methods = _dispatch_methods(model, event_type)
    if methods is None:
        return False
    return not (methods & model.method_external)


def _item_of(
    expr: Tuple[str, str],
    rebound: Set[str],
    container_grown: Set[str],
    allow_event_field: bool,
):
    """Map a symbolic target expression to a footprint item (None = opaque)."""
    kind, payload = expr
    if kind == "self":
        return "self"
    if kind == "attr":
        if payload in rebound:
            return None  # choice-time getattr could observe a stale binding
        return {"attr": payload}
    if kind == "attr_item":
        if payload in rebound or payload in container_grown:
            # the dispatch itself can rebind the container or insert members
            # the choice-time snapshot never saw
            return None
        return {"attr-values": payload}
    if kind == "class":
        return {"class": payload}
    if kind == "event_field" and allow_event_field:
        return {"event-field": payload}
    return None


def footprint_for(
    program: ProgramModel, model: MachineModel, event_type: type
) -> Optional[dict]:
    """Concrete footprint for one ``(machine, event-type)`` dispatch pair;
    ``None`` means opaque (dependent with everything)."""
    if model.partial:
        return None
    methods = _dispatch_methods(model, event_type)
    if methods is None:
        return None
    if methods & model.method_external:
        return None
    seeds = _seed_methods(model, event_type)
    rebound: Set[str] = set()
    container_grown: Set[str] = set()
    for name in methods:
        rebound.update(model.method_attr_stores.get(name, ()))
        container_grown.update(model.method_container_stores.get(name, ()))

    writes: List[object] = []
    reads: List[object] = []
    monitors: Set[str] = set()
    creates = False
    for site in model.sends:
        if site.method not in methods:
            continue
        item = _item_of(
            site.target_expr, rebound, container_grown, site.method in seeds
        )
        if item is None:
            return None
        if item not in writes:
            writes.append(item)
    for query in model.queries:
        if query.method not in methods:
            continue
        item = _item_of(
            query.target_expr, rebound, container_grown, query.method in seeds
        )
        if item is None:
            return None
        if item not in reads:
            reads.append(item)
    for site in model.notifies:
        if site.method not in methods:
            continue
        if site.monitor is None or not _monitor_is_transparent(
            program, site.monitor, site.event_type
        ):
            return None
        monitors.add(type_key(site.monitor))
    for site in model.creates:
        if site.method in methods:
            creates = True
    return {
        "creates": creates,
        "monitors": sorted(monitors),
        "writes": _sorted_items(writes),
        "reads": _sorted_items(reads),
    }


def _sorted_items(items: List[object]) -> List[object]:
    def key(item: object) -> Tuple[str, str]:
        if item == "self":
            return ("", "")
        assert isinstance(item, dict)
        (kind, value), = item.items()
        return (kind, value)

    return sorted(items, key=key)


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------
def build_independence_table(program: ProgramModel) -> dict:
    """Whole-program independence table, JSON-safe and byte-stable.

    ``table["machines"][machine_key]["events"][event_key]`` is either a
    concrete footprint dict or ``{"opaque": true}``.  Machines and events
    absent from the table are opaque by construction — the consumer side
    (:class:`repro.core.strategy.dpor_lite.DporLiteStrategy`) treats every
    lookup miss as dependent-with-everything.
    """
    machines: Dict[str, dict] = {}
    for model in sorted(program, key=lambda m: (m.module, m.line, m.name)):
        if model.kind != "machine":
            continue
        events: Dict[str, dict] = {}
        event_types = {
            registered
            for (_state, registered) in model.spec.handlers
            if isinstance(registered, type)
        }
        event_types.add(Halt)
        event_types.add(StartEvent)
        for event_type in event_types:
            footprint = footprint_for(program, model, event_type)
            events[type_key(event_type)] = (
                {"opaque": True} if footprint is None else footprint
            )
        machines[type_key(model.cls)] = {"events": dict(sorted(events.items()))}
    return {"version": TABLE_VERSION, "machines": machines}


def independence_for_classes(classes: Iterable[type]) -> dict:
    """Convenience: build the table straight from root machine classes."""
    from .extract import build_program

    return build_independence_table(build_program(classes))


__all__ = [
    "TABLE_VERSION",
    "build_independence_table",
    "footprint_for",
    "independence_for_classes",
    "type_key",
]
