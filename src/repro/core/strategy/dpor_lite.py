"""Dependence-aware DFS: sleep-set pruning from static independence facts.

``dpor-lite`` is :class:`~repro.core.strategy.dfs_strategy.DFSStrategy` plus
*sleep sets* (Godefroid).  The base class already threads a sleep set along
every execution — filtering sleepers out of the options, folding the set
into the state key of stateful search, dropping it on a covered state and
keeping it per choice point so a replayed prefix re-derives nothing — but
under plain DFS that set stays empty.  This class supplies the one missing
piece, :meth:`DporLiteStrategy._sleep_after`: who is asleep once a branch
has been taken.  It runs when a node is first played and again at the
*bumped* node of each later execution (new branch, same recorded sleep set
on entry), against the live machines both times.

At such a point the strategy determines, for the chosen machine and its
earlier siblings, the event the dispatch would consume next, and
looks that ``(machine class, event type)`` pair up in a statically computed
independence table (built by
:func:`repro.analysis.independence.build_independence_table` and threaded in
through ``TestingConfig.independence``).  Once the search has fully explored
the subtree where machine *m* runs at a point, *m* goes to *sleep* in the
sibling subtrees: as long as every subsequently chosen dispatch provably
commutes with *m*'s, scheduling *m* later can only reach states the explored
subtree already covered, so branches that would schedule it are pruned.

Tables split each footprint into *writes* (machines the dispatch can send
to) and *reads* (machines whose inboxes it only queries), so two dispatches
that merely read the same machine commute.  A table of any other version is
ignored, falling back to plain DFS.

Soundness discipline — everything degrades to *dependent*:

* no table, unknown machine class, unknown event type, or an ``opaque``
  table entry: the dispatch conflicts with everything;
* a machine paused in a coroutine or blocked in ``Receive``: its next step
  resumes arbitrary handler code, so it is dynamically opaque;
* a symbolic footprint item (``{"attr": name}``, ``{"event-field": name}``)
  that does not resolve to a live :class:`MachineId` at the scheduling
  point: opaque.

Why insertion-time footprints stay valid while a machine sleeps: a sleeping
machine is by definition not dispatched, so its state, its attributes, its
inbox head — and therefore the head event's payload fields an
``{"event-field": name}`` item reads — cannot change (sends append at the
back; defer/ignore disciplines depend only on its own state), and any
*other* dispatch that could invalidate the resolution would have to touch
the sleeping machine or mutate its payload (which makes that dispatch's
method external, hence opaque) — dependent either way, removing the sleep
entry first.

When ``TestingConfig.independence`` is ``None`` the strategy behaves exactly
like plain ``dfs``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, NamedTuple, Optional, Set

from ..ids import MachineId
from .dfs_strategy import DFSStrategy, _ChoicePoint
from .registry import register_strategy

#: the table format version this consumer understands (see
#: ``repro.analysis.independence.TABLE_VERSION``); any other version is
#: ignored, falling back to plain DFS.
_SUPPORTED_TABLE_VERSION = 2


def _type_key(cls: type) -> str:
    # Mirrors repro.analysis.independence.type_key; duplicated so repro.core
    # never imports from repro.analysis (the dependency points the other way).
    return f"{cls.__module__}.{cls.__qualname__}"


class _Touch(NamedTuple):
    """A dispatch footprint resolved against the live machine table."""

    writes: FrozenSet[int]  # machine-id values the dispatch can mutate
    reads: FrozenSet[int]  # machine-id values it only queries
    inst_classes: FrozenSet[str]  # type keys of all touched instances
    classes: FrozenSet[str]  # type keys of freshly created send targets
    monitors: FrozenSet[str]  # monitor type keys the dispatch can notify
    creates: bool  # whether the dispatch allocates machine ids


@register_strategy("dpor-lite")
class DporLiteStrategy(DFSStrategy):
    """DFS with static-independence sleep-set pruning."""

    name = "dpor-lite"

    def __init__(
        self,
        seed: int = 0,
        independence: Optional[dict] = None,
        stateful: bool = False,
    ) -> None:
        super().__init__(seed, stateful=stateful)
        table: Optional[Mapping[str, dict]] = None
        if (
            isinstance(independence, dict)
            and independence.get("version") == _SUPPORTED_TABLE_VERSION
        ):
            table = independence.get("machines", {})
        self._table = table

    @classmethod
    def from_config(cls, config, options: Optional[Mapping] = None) -> "DporLiteStrategy":
        options = dict(options or {})
        return cls(
            seed=config.seed,
            independence=getattr(config, "independence", None),
            stateful=bool(options.get("stateful", getattr(config, "stateful", False))),
        )

    # ------------------------------------------------------------------
    # scheduling: DFSStrategy.next_machine, with machines that fall asleep
    # ------------------------------------------------------------------
    def _sleep_after(self, point: _ChoicePoint) -> Dict[int, _Touch]:
        if self._table is None or self._runtime is None:
            return {}
        index = point.index
        chosen = point.options[index]
        chosen_touch = self._touch_of(chosen)
        new_sleep: Dict[int, _Touch] = {}
        if chosen_touch is not None:
            # Surviving sleepers: still independent of the chosen dispatch.
            for value, touch in point.sleep_in.items():
                if value != chosen.value and _independent(touch, chosen_touch):
                    new_sleep[value] = touch
            # Earlier siblings at this point: their subtrees are fully
            # explored (DFS walks the options left to right), so they fall
            # asleep for the remainder of this branch if they commute.
            for sibling in point.options[:index]:
                if sibling.value in new_sleep:
                    continue
                touch = self._touch_of(sibling)
                if touch is not None and _independent(touch, chosen_touch):
                    new_sleep[sibling.value] = touch
        return new_sleep

    # ------------------------------------------------------------------
    # footprint resolution
    # ------------------------------------------------------------------
    def _touch_of(self, mid: MachineId) -> Optional[_Touch]:
        """Resolved footprint of ``mid``'s next dispatch (None = opaque)."""
        machine = self._runtime._machines_by_value.get(mid.value)
        if machine is None:
            return None
        if machine._coroutine is not None or machine._pending_receive is not None:
            return None  # paused mid-handler: dynamically opaque
        event = _head_event(machine)
        if event is None:
            return None
        entry = self._table.get(_type_key(type(machine)))
        if entry is None:
            return None
        footprint = entry.get("events", {}).get(_type_key(type(event)))
        if footprint is None or footprint.get("opaque"):
            return None
        return self._resolve(machine, mid, footprint, event)

    def _resolve(
        self, machine, mid: MachineId, footprint: dict, event
    ) -> Optional[_Touch]:
        machines_by_value = self._runtime._machines_by_value
        writes = {mid.value}  # a dispatch always mutates its own machine
        reads: Set[int] = set()
        classes: Set[str] = set()

        def _resolve_items(items, into: Set[int]) -> bool:
            for item in items:
                if item == "self":
                    continue  # own value is already in ``writes``
                if not isinstance(item, dict):
                    return False
                if "attr" in item:
                    target = getattr(machine, item["attr"], None)
                    if not isinstance(target, MachineId):
                        return False  # attr unset or not a machine id yet
                    into.add(target.value)
                elif "attr-values" in item:
                    container = getattr(machine, item["attr-values"], None)
                    if isinstance(container, dict):
                        values = container.values()
                    elif isinstance(container, (list, tuple, set, frozenset)):
                        values = container
                    else:
                        return False
                    for value in values:
                        if not isinstance(value, MachineId):
                            return False
                        into.add(value.value)
                elif "event-field" in item:
                    target = getattr(event, item["event-field"], None)
                    if not isinstance(target, MachineId):
                        return False  # payload does not carry a machine id
                    into.add(target.value)
                elif "class" in item:
                    classes.add(item["class"])
                else:
                    return False
            return True

        if not _resolve_items(footprint.get("writes", ()), writes):
            return None
        if not _resolve_items(footprint.get("reads", ()), reads):
            return None
        inst_classes = set()
        for value in writes | reads:
            target = machines_by_value.get(value)
            if target is None:
                return None  # names a machine the runtime no longer knows
            inst_classes.add(_type_key(type(target)))
        return _Touch(
            writes=frozenset(writes),
            reads=frozenset(reads),
            inst_classes=frozenset(inst_classes),
            classes=frozenset(classes),
            monitors=frozenset(footprint.get("monitors", ())),
            creates=bool(footprint.get("creates")),
        )


def _head_event(machine):
    """The event instance the next dispatch of ``machine`` will consume.

    Mirrors the dispatch order in ``TestRuntime._execution_loop``: the raised
    queue drains first and bypasses disciplines; otherwise the first
    dequeuable inbox event is consumed (a plain state context dequeues the
    head directly).
    """
    if machine._raised:
        return machine._raised[0]
    ctx = machine._state_ctx
    inbox = machine._inbox
    if ctx.plain:
        return inbox[0] if inbox else None
    for event in inbox:
        if ctx.dequeuable(type(event)):
            return event
    return None


def _independent(a: _Touch, b: _Touch) -> bool:
    """Whether two resolved footprints provably commute."""
    if a.creates and b.creates:
        return False  # machine-id allocation order is observable
    if a.monitors & b.monitors:
        return False
    if a.writes & (b.writes | b.reads):
        return False
    if b.writes & a.reads:
        return False
    # read/read overlaps commute: count_pending cannot observe another
    # query, only sends (writes) change an inbox.
    # A freshly created target cannot alias an existing instance, but guard
    # against a same-class interaction anyway: the conservative direction
    # costs at most one unpruned branch.
    if a.classes & (b.classes | b.inst_classes):
        return False
    if b.classes & (a.classes | a.inst_classes):
        return False
    return True


__all__ = ["DporLiteStrategy"]
