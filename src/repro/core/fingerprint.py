"""Execution fingerprinting: an incremental hash of the global state.

A *fingerprint* summarizes the complete controlled-execution state — for
every machine its state stack, its inbox and raised-queue contents (in
order), its halted/paused status, its user-visible attributes and its
pending start arguments, plus every registered monitor's state — in one
64-bit value.  The testing runtime maintains it *incrementally*, alongside
the enabled-set bookkeeping: every enqueue/dequeue updates a rolling queue
hash in O(1), every dispatched step refreshes only the executed machine's
component — through a memo keyed on its whole local state while the record is
cold, by re-digesting only the attributes the step changed once it is warm —
and the global value is the XOR-fold of the per-machine and per-monitor
components.  Nothing ever rescans the whole system — and nothing
is maintained before anybody looks: the tracker builds its records at the
first observation of an execution, or is handed them back from a
:meth:`FingerprintTracker.snapshot` by a search that has been in this state
before (see *Replaying the prefix blind* in
:mod:`repro.core.strategy.dfs_strategy`).

Three consumers build on it:

* **Coverage** — :class:`~repro.core.coverage.CoverageTracker` collects the
  set of distinct fingerprints seen across executions ("novel behaviours"),
  which survives JSON round-trips and portfolio merges.
* **Stateful search** — the DFS-family strategies prune schedules that
  revisit an already fully-explored global state (see
  :mod:`repro.core.strategy.dfs_strategy`).
* **Feedback** — the ``feedback`` strategy mutates schedule prefixes that
  reached novel fingerprints, AFL-style.

Determinism and exactness
-------------------------

Fingerprints must be identical across processes and runs for the same
execution, so all hashing goes through :func:`stable_hash` — a
``blake2b``-based canonical encoding that never touches Python's
``PYTHONHASHSEED``-randomized built-in ``hash()``.  Values the encoder does
not understand (open files, lambdas, ...) degrade to a type-only marker and
mark the encoding *inexact*: still deterministic, but two genuinely
different states may collide.  Similarly, a machine paused inside a
generator handler carries frame state no encoding can capture, so it is
inexact while paused.  :meth:`FingerprintTracker.current` reports both the
value and whether it is exact; stateful-search dedupe only ever acts on
exact fingerprints, while coverage and feedback (heuristics) use every
value.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from hashlib import blake2b
from types import ModuleType
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Set

from .events import Event
from .ids import MachineId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .machine import Machine
    from .monitors import Monitor
    from .runtime.kernel import RuntimeKernel

__all__ = ["Fingerprint", "FingerprintTracker", "merge_visited", "stable_hash"]

#: Mersenne-prime modulus of the rolling queue hashes; keeps every hash in
#: 61 bits so the Python ints stay single-digit (fast) on 64-bit builds.
_M = (1 << 61) - 1
#: rolling-hash base (any value coprime with the modulus works)
_B = 1_000_003
#: modular inverse of the base: multiplying by it "pops" one power off the
#: front of the polynomial, which is what makes popleft O(1).
_B_INV = pow(_B, _M - 2, _M)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_SEED = 0x243F6A8885A308D3


def _mix(*parts: int, acc: int = _MIX_SEED) -> int:
    """Order-sensitive 64-bit combiner for already-hashed components.

    Sequential, so ``_mix(c, d, acc=_mix(a, b)) == _mix(a, b, c, d)``: a
    prefix that never changes needs mixing only once.
    """
    for part in parts:
        # (the outer mask makes masking the shifted term redundant)
        acc ^= (part + _GOLDEN + (acc << 6) + (acc >> 2)) & _MASK64
        acc = (acc * _GOLDEN) & _MASK64
        acc ^= acc >> 29
    return acc


# ---------------------------------------------------------------------------
# stable hashing
# ---------------------------------------------------------------------------
# One canonical encoding, two walkers per class.  A *feeder* writes the
# encoding of a value into a blake2b hasher; the feeders are the only
# definition of what a fingerprint is.  A *freezer* walks the same value by
# the same rules but only collects a flat key of primitives and classes, such
# that equal keys imply equal encodings.  ``_sub_digest`` looks the key up in
# a small bounded memo; a miss runs the feeder and stores its digest.  Stateful
# search re-creates the same machines and re-sends the same events in every
# schedule, so nearly every lookup hits.  Both walkers are resolved once per
# class (``_resolve``), not by an isinstance ladder per call.

#: A key holds at most ``_MAX_TOKENS`` tokens, a str/bytes token at most
#: ``_MAX_ATOM`` characters and an int token is below ``_MAX_INT`` in magnitude;
#: anything larger is encoded without the memo.  With ``_MEMO_GENERATION``
#: entries in each of its two generations, the memo's footprint is a constant
#: however many distinct states a run visits.
_MAX_TOKENS = 48
_MAX_ATOM = 64
_MAX_INT = 1 << 64
_MEMO_GENERATION = 256
#: distinct ``__dict__`` key orders remembered before the table is dropped
_MAX_LAYOUTS = 512

#: classes whose walkers are remembered before both tables are dropped (a
#: program that keeps making classes must not grow them without end)
_MAX_CLASSES = 4096


class _Walkers(dict):
    """``class -> walker``; a class seen for the first time gets both of its
    walkers resolved (:func:`_resolve`) and remembered."""

    def __missing__(self, cls: type) -> Callable:
        if len(_FEEDERS) >= _MAX_CLASSES:
            _FEEDERS.clear()
            _FREEZERS.clear()
        _FEEDERS[cls], _FREEZERS[cls] = _resolve(cls)
        return self[cls]


#: ``feeder(hasher, value, path) -> exact``
_FEEDERS = _Walkers()
#: ``freezer(value, tokens)``; raises ``_Unfreezable``
_FREEZERS = _Walkers()


class _Unfreezable(Exception):
    """The value gets no memo key: too large, cyclic, or not exactly encodable."""


class _Memo:
    """Bounded ``key -> finished result`` memo in two generations.

    New entries land in ``young``; when it is full it becomes ``old`` and the
    previous ``old`` is dropped.  A hit in ``old`` is promoted, so a key that
    is looked up at least once per generation survives, while a stream of
    keys that never repeat (the all-distinct states of a long random run)
    costs one generation of memory and no more.
    """

    __slots__ = ("generation", "young", "old")

    def __init__(self, generation: int) -> None:
        self.generation = generation
        self.young: Dict[tuple, Any] = {}
        self.old: Dict[tuple, Any] = {}

    def get(self, key: tuple) -> Any:
        hit = self.young.get(key)
        if hit is None:
            hit = self.old.get(key)
            if hit is not None:
                self.put(key, hit)
        return hit

    def put(self, key: tuple, result: Any) -> None:
        if len(self.young) >= self.generation:
            self.old = self.young
            self.young = {}
        self.young[key] = result

    def clear(self) -> None:
        self.young = {}
        self.old = {}


#: Process-wide because ``stable_hash`` is a function and the values that
#: repeat do so across executions and trackers.  A pure cache: dropping any
#: part of it at any time changes no result.  A key is a frozen value, mapped
#: to its ``(digest, exact)``, unless it starts with one of the tags below.
_MEMO = _Memo(_MEMO_GENERATION)
#: identity and start arguments of a machine -> ``(prefix, start_exact)``
_CREATED = object()
#: prefix, status, state stack and attributes of a machine -> ``slow``
_MACHINE_STATE = object()


def stable_hash(value) -> "tuple[int, bool]":
    """Hash ``value`` into ``(64-bit int, exact)`` deterministically.

    Identical values produce identical hashes in every process and on every
    run (no dependence on ``PYTHONHASHSEED``, object identity or dict
    insertion order).  ``exact`` is False when some part of ``value`` had no
    canonical encoding and was represented by a type-only marker.
    """
    digest, exact = _sub_digest(value, {})
    return int.from_bytes(digest, "big"), exact


def _sub_digest(value, path, key=False) -> "tuple[bytes, bool]":
    """Digest of one value in isolation, through the memo.

    ``path`` is the encoder's cycle table (see :func:`_feed`).  A value that
    reaches a container on it is part of a cycle, so freezing it runs out of
    tokens and it is encoded directly: its back-reference markers depend on
    where it sits and must not be shared.  A caller that froze ``value``
    already passes its ``key`` (``None``: it has none).
    """
    if key is False:
        tokens: List[Any] = []
        try:
            _FREEZERS[value.__class__](value, tokens)
        except _Unfreezable:
            key = None
        else:
            key = tuple(tokens)
    if key is not None:
        hit = _MEMO.get(key)
        if hit is not None:
            return hit
    hasher = blake2b(digest_size=8)
    exact = _feed(hasher, value, path)
    result = (hasher.digest(), exact)
    if key is not None:
        _MEMO.put(key, result)
    return result


def _feed(hasher, value, path) -> bool:
    """Feed the canonical encoding of ``value`` into ``hasher``; True if exact.

    ``path`` maps ``id()`` of the containers currently on the encoding path
    to their path position, turning reference cycles into a deterministic
    back-reference marker instead of infinite recursion.
    """
    return _FEEDERS[value.__class__](hasher, value, path)


def _refuse(value, tokens) -> None:
    raise _Unfreezable


# -- exact scalars ----------------------------------------------------------
# Key tokens: None, int, str and bytes stand for themselves; bool and float
# carry their class, because True == 1 == 1.0 and 0.0 == -0.0 as dict keys
# while their encodings differ.
def _feed_none(hasher, value, path) -> bool:
    hasher.update(b"N")
    return True


def _freeze_none(value, tokens) -> None:
    tokens.append(None)


def _feed_bool(hasher, value, path) -> bool:
    hasher.update(b"T" if value else b"F")
    return True


def _freeze_bool(value, tokens) -> None:
    tokens.append(bool)
    tokens.append(value)


def _feed_int(hasher, value, path) -> bool:
    data = str(value).encode()
    hasher.update(b"i%d:%b" % (len(data), data))
    return True


def _freeze_int(value, tokens) -> None:
    if not -_MAX_INT < value < _MAX_INT:
        raise _Unfreezable
    tokens.append(value)


def _feed_str(hasher, value, path) -> bool:
    data = value.encode("utf-8", "surrogatepass")
    hasher.update(b"s%d:%b" % (len(data), data))
    return True


def _feed_float(hasher, value, path) -> bool:
    data = repr(value).encode()
    hasher.update(b"f%d:%b" % (len(data), data))
    return True


def _freeze_float(value, tokens) -> None:
    tokens.append(float)
    tokens.append(repr(value))


def _feed_bytes(hasher, value, path) -> bool:
    hasher.update(b"y%d:%b" % (len(value), value))
    return True


def _freeze_atom(value, tokens) -> None:
    if len(value) > _MAX_ATOM:
        raise _Unfreezable
    tokens.append(value)


def _feed_machine_id(hasher, value, path) -> bool:
    hasher.update(b"m")
    return (
        _feed(hasher, value.value, path)
        & _feed(hasher, value.type_name, path)
        & _feed(hasher, value.name, path)
    )


def _freeze_machine_id(value, tokens) -> None:
    # ``MachineId.__eq__`` compares ``value`` alone, and the same value names
    # different machines in different schedules: key on all three fields.
    # Ids are the most frequent value there is, so the fields are checked
    # here rather than dispatched; the runtime makes no other kind of id.
    number, type_name, name = value.value, value.type_name, value.name
    if not (
        number.__class__ is int
        and type_name.__class__ is str
        and name.__class__ is str
        and -_MAX_INT < number < _MAX_INT
        and len(type_name) <= _MAX_ATOM
        and len(name) <= _MAX_ATOM
    ):
        raise _Unfreezable
    tokens += (MachineId, number, type_name, name)


# -- containers -------------------------------------------------------------
def _feed_sequence(hasher, value, path) -> bool:
    ident = id(value)
    if ident in path:
        # Back-reference: encode the cycle by path position, which is the
        # same in every process for the same object graph shape.
        hasher.update(b"c%d:" % path[ident])
        return True
    path[ident] = len(path)
    hasher.update(b"t%d:" % len(value))
    exact = True
    for item in value:
        exact &= _FEEDERS[item.__class__](hasher, item, path)
    del path[ident]
    return exact


def _feed_mapping(hasher, value, path) -> bool:
    ident = id(value)
    if ident in path:
        hasher.update(b"c%d:" % path[ident])
        return True
    path[ident] = len(path)
    exact = True
    entries = []
    for key, item in value.items():
        key_digest, key_exact = _sub_digest(key, path)
        item_digest, item_exact = _sub_digest(item, path)
        exact &= key_exact & item_exact
        entries.append(key_digest + item_digest)
    _feed_unordered(hasher, b"d", entries)
    del path[ident]
    return exact


def _feed_set(hasher, value, path) -> bool:
    ident = id(value)
    if ident in path:
        hasher.update(b"c%d:" % path[ident])
        return True
    path[ident] = len(path)
    exact = True
    digests = []
    for item in value:
        digest, item_exact = _sub_digest(item, path)
        exact &= item_exact
        digests.append(digest)
    _feed_unordered(hasher, b"S", digests)
    del path[ident]
    return exact


def _feed_unordered(hasher, tag: bytes, digests: List[bytes]) -> None:
    # Canonical order: sort by encoded bytes, not by element comparison, so
    # mixed-type members never raise and the order is process-stable.
    digests.sort()
    hasher.update(b"%b%d:%b" % (tag, len(digests), b"".join(digests)))


# Every container checks the room left before it adds its members, which is
# also what ends the walk of a cyclic value.
def _freeze_sequence(value, tokens) -> None:
    size = len(value)
    if len(tokens) + size > _MAX_TOKENS:
        raise _Unfreezable
    tokens.append(tuple)
    tokens.append(size)
    for item in value:
        _FREEZERS[item.__class__](item, tokens)


def _freeze_mapping(value, tokens) -> None:
    size = len(value)
    if len(tokens) + 2 * size > _MAX_TOKENS:
        raise _Unfreezable
    tokens.append(dict)
    tokens.append(size)
    for key, item in value.items():
        _FREEZERS[key.__class__](key, tokens)
        _FREEZERS[item.__class__](item, tokens)


def _freeze_set(value, tokens) -> None:
    size = len(value)
    if len(tokens) + size > _MAX_TOKENS:
        raise _Unfreezable
    tokens.append(frozenset)
    tokens.append(size)
    for item in value:
        _FREEZERS[item.__class__](item, tokens)


# -- references -------------------------------------------------------------
def _class_path(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def _feed_machine(hasher, value, path) -> bool:
    # A machine *reference* is its identity: the referenced machine's own
    # component already covers its state, and encoding it structurally
    # would chase the back-references it holds (runtime, strategy, ...).
    hasher.update(b"R")
    return _feed(hasher, value._id, path)


class _MachineRef:
    """Key tag of a machine reference (``Machine`` itself imports this module)."""


def _freeze_machine(value, tokens) -> None:
    tokens.append(_MachineRef)
    _FREEZERS[value._id.__class__](value._id, tokens)


def _feed_class(hasher, value, path) -> bool:
    # A class reference is fully identified by its import path.
    hasher.update(_encoded_str(b"k", _class_path(value)))
    return True


def _freeze_class(value, tokens) -> None:
    tokens.append(type)
    tokens.append(value)


# -- structured objects -----------------------------------------------------
class _Layout:
    """The public names of one ``__dict__`` key order, sorted, with each
    name's encoding (object rule) and digest (dict rule) worked out once.

    Underscore-prefixed attributes are runtime-internal bookkeeping by repo
    convention and excluded.
    """

    __slots__ = ("names", "encoded", "digests")

    def __init__(self, order: tuple) -> None:
        self.names = tuple(sorted(name for name in order if not name.startswith("_")))
        self.encoded = tuple(_encoded_str(b"", name) for name in self.names)
        self.digests = tuple(blake2b(data, digest_size=8).digest() for data in self.encoded)


_LAYOUTS: Dict[tuple, _Layout] = {}


def _layout_of(attrs: dict) -> _Layout:
    order = tuple(attrs)
    layout = _LAYOUTS.get(order)
    if layout is None:
        if len(_LAYOUTS) >= _MAX_LAYOUTS:
            _LAYOUTS.clear()
        layout = _LAYOUTS[order] = _Layout(order)
    return layout


def _feed_public(hasher, head: bytes, value, path) -> bool:
    """``head``, then the count, names and values of the public attributes."""
    ident = id(value)
    if ident in path:
        hasher.update(b"c%d:" % path[ident])
        return True
    path[ident] = len(path)
    attrs = value.__dict__
    layout = _layout_of(attrs)
    hasher.update(b"%b%d:" % (head, len(layout.names)))
    exact = True
    for name, encoded in zip(layout.names, layout.encoded):
        hasher.update(encoded)
        item = attrs[name]
        exact &= _FEEDERS[item.__class__](hasher, item, path)
    del path[ident]
    return exact


def _freeze_public(attrs: dict, tokens) -> None:
    layout = _layout_of(attrs)
    names = layout.names
    if len(tokens) + len(names) > _MAX_TOKENS:
        raise _Unfreezable
    # The layout stands for the names: one per key order, compared by identity.
    tokens.append(layout)
    for name in names:
        item = attrs[name]
        _FREEZERS[item.__class__](item, tokens)


def _hash_public_attrs(attrs: dict) -> "tuple[int, bool]":
    """``stable_hash`` of the dict of ``attrs``' public entries, without
    building that dict: the names come digested from the layout, the values
    go through the memo one by one."""
    layout = _layout_of(attrs)
    # One ancestor on the path, as when the dict itself is being encoded:
    # cycle markers inside the values count their position from it.
    path = {0: 0}
    exact = True
    entries = []
    for name, name_digest in zip(layout.names, layout.digests):
        digest, item_exact = _sub_digest(attrs[name], path)
        exact &= item_exact
        entries.append(name_digest + digest)
    return _hash_entries(entries), exact


def _hash_entries(entries: List[bytes]) -> int:
    """The dict hash of ``name_digest + value_digest`` entries (sorts them)."""
    hasher = blake2b(digest_size=8)
    _feed_unordered(hasher, b"d", entries)
    return int.from_bytes(hasher.digest(), "big")


# -- per-class resolution ---------------------------------------------------
#: (class, its subclasses' instances -> the plain value, feeder, freezer); the
#: conversions are the base classes' own, which no subclass override reaches
_SCALAR_BASES = (
    (int, int.__index__, _feed_int, _freeze_int),
    (str, str.__str__, _feed_str, _freeze_atom),
    (float, float.__float__, _feed_float, _freeze_float),
    (bytes, lambda value: bytes.__getitem__(value, slice(None)), _feed_bytes, _freeze_atom),
)


def _resolve(cls: type) -> "tuple[Callable, Callable]":
    """The (feeder, freezer) pair of ``cls``.

    The rule order is the encoding's definition: the first rule that matches
    the class wins.
    """
    if cls is type(None):
        return _feed_none, _freeze_none
    if cls is bool:
        return _feed_bool, _freeze_bool
    for base, _, feed_base, freeze_base in _SCALAR_BASES:
        if cls is base:
            return feed_base, freeze_base
    if cls is MachineId:
        return _feed_machine_id, _freeze_machine_id
    if issubclass(cls, Enum):
        return _enum_pair(cls)
    for base, plain, feed_base, freeze_base in _SCALAR_BASES:
        if issubclass(cls, base):
            return _scalar_subclass_pair(cls, plain, feed_base, freeze_base)
    if issubclass(cls, (tuple, list, deque)):
        return _feed_sequence, _freeze_sequence
    if issubclass(cls, dict):
        return _feed_mapping, _freeze_mapping
    if issubclass(cls, (set, frozenset)):
        return _feed_set, _freeze_set
    # Avoid a module-level import cycle: machine -> runtime -> fingerprint.
    from .machine import Machine

    if issubclass(cls, Machine):
        return _feed_machine, _freeze_machine
    if issubclass(cls, type):
        return _feed_class, _freeze_class
    if _has_dict(cls) and not _is_callable(cls) and not issubclass(cls, ModuleType):
        # Structured object (event payloads, harness helper objects,
        # dataclasses): class identity plus its public attributes.
        return _object_pair(cls)
    # No canonical encoding (functions, modules, file handles, slotted
    # objects, ...): a deterministic type-only marker, flagged inexact.
    head = _encoded_str(b"?", _class_path(cls))

    def feed_opaque(hasher, value, path) -> bool:
        hasher.update(head)
        return False

    return feed_opaque, _refuse


def _has_dict(cls: type) -> bool:
    return cls.__dictoffset__ != 0


def _is_callable(cls: type) -> bool:
    # ``callable(instance)``, asked of the class.
    return any("__call__" in vars(base) for base in cls.__mro__)


def _encoded_str(tag: bytes, text: str) -> bytes:
    data = text.encode("utf-8", "surrogatepass")
    return b"%bs%d:%b" % (tag, len(data), data)


def _object_pair(cls: type):
    head = _encoded_str(b"o", _class_path(cls))

    def feed_object(hasher, value, path) -> bool:
        return _feed_public(hasher, head, value, path)

    def freeze_object(value, tokens) -> None:
        tokens.append(cls)
        _freeze_public(value.__dict__, tokens)

    return feed_object, freeze_object


def _enum_pair(cls: type):
    # A member is its class and name; ``__dict__`` holds nothing public, so
    # the object rule would give every member of the class one hash.
    head = _encoded_str(b"e", _class_path(cls))

    def member_name(value):
        # Unnamed flag combinations are told apart by their value instead.
        return value._name_ if value._name_ is not None else value._value_

    def feed_enum(hasher, value, path) -> bool:
        hasher.update(head)
        return _feed(hasher, member_name(value), path)

    def freeze_enum(value, tokens) -> None:
        tokens.append(cls)
        name = member_name(value)
        _FREEZERS[name.__class__](name, tokens)

    return feed_enum, freeze_enum


def _scalar_subclass_pair(cls: type, plain, feed_base, freeze_base):
    # An int/str/float/bytes subclass is its class, its plain value and, when
    # instances carry a ``__dict__``, their public attributes.
    head = _encoded_str(b"b", _class_path(cls))
    has_attrs = _has_dict(cls)

    def feed_scalar(hasher, value, path) -> bool:
        hasher.update(head)
        feed_base(hasher, plain(value), path)
        return _feed_public(hasher, b"", value, path) if has_attrs else True

    def freeze_scalar(value, tokens) -> None:
        tokens.append(cls)
        freeze_base(plain(value), tokens)
        if has_attrs:
            _freeze_public(value.__dict__, tokens)

    return feed_scalar, freeze_scalar


class Fingerprint(NamedTuple):
    """One observation of the global execution fingerprint."""

    value: int
    #: True when the value captures the state exactly (no paused coroutine,
    #: no unencodable attribute or payload anywhere); dedupe requires it.
    exact: bool


class _QueueHash:
    """Rolling polynomial hash of one event queue (order-sensitive).

    ``hash = sum(h_i * B**(n-1-i)) mod M`` over the per-event hashes, so
    append is ``H*B + h`` and popleft subtracts the head term using the
    maintained ``B**n`` power and the precomputed modular inverse — both
    O(1).  Removal at an arbitrary index (the rare discipline/receive path,
    itself already O(n)) refolds from the mirrored hash deque.
    """

    __slots__ = ("value", "power", "items", "inexact")

    def __init__(self) -> None:
        self.value = 0
        self.power = 1  # B ** len(items) mod M
        #: per-event ``(hash mod M, exact)`` pairs mirroring the real queue
        self.items: deque = deque()
        #: number of queued items whose encoding was inexact
        self.inexact = 0

    def append(self, item_hash: int, exact: bool) -> None:
        folded = item_hash % _M
        self.items.append((folded, exact))
        self.value = (self.value * _B + folded) % _M
        self.power = (self.power * _B) % _M
        if not exact:
            self.inexact += 1

    def popleft(self) -> None:
        folded, exact = self.items.popleft()
        self.power = (self.power * _B_INV) % _M
        self.value = (self.value - folded * self.power) % _M
        if not exact:
            self.inexact -= 1

    def remove_at(self, index: int) -> None:
        _, exact = self.items[index]
        del self.items[index]
        if not exact:
            self.inexact -= 1
        self._refold()

    def clear(self) -> None:
        self.items.clear()
        self.value = 0
        self.power = 1
        self.inexact = 0

    def _refold(self) -> None:
        value = 0
        for folded, _ in self.items:
            value = (value * _B + folded) % _M
        self.value = value
        self.power = pow(_B, len(self.items), _M)

    def copy(self) -> "_QueueHash":
        twin = _QueueHash.__new__(_QueueHash)
        twin.value = self.value
        twin.power = self.power
        twin.items = self.items.copy()
        twin.inexact = self.inexact
        return twin


#: Exact classes whose instances never change (a subclass may carry a
#: ``__dict__``): the identical object is the same value, unfrozen.
_ATOMS = frozenset((int, str, bytes, bool, float, type(None), MachineId))
#: in place of an attribute's previous value when that is no atom: a record
#: never keeps a user object alive
_NO_ATOM = object()


class _MachineRecord:
    """Cached fingerprint component of one machine.

    A warm record (see :meth:`FingerprintTracker._refresh`) also keeps, per
    public name of ``layout``, the previous value if it is an atom, its key
    and its ``name_digest + value_digest``, and the other inputs of ``slow``.
    """

    __slots__ = (
        "prefix", "start_exact", "slow", "attrs_exact", "paused", "inbox",
        "raised", "component", "exact", "dirty",
        "layout", "atoms", "keys", "entries", "status", "ctx", "stack_hash",
    )

    def __init__(self, prefix: int, start_exact: bool) -> None:
        #: ``_mix(identity hash, start-arguments hash)``: never changes ...
        self.prefix = prefix
        self.start_exact = start_exact
        #: ... and stack, attributes and status only when the machine runs
        self.slow = 0
        self.attrs_exact = True
        self.paused = False
        self.inbox = _QueueHash()
        self.raised = _QueueHash()
        self.component = 0
        self.exact = True
        #: some part changed since ``component`` was last folded
        self.dirty = False
        self.layout: Optional[_Layout] = None

    def fold(self) -> int:
        inbox = self.inbox
        raised = self.raised
        return _mix(
            inbox.value, len(inbox.items), raised.value, len(raised.items), acc=self.slow
        )

    def is_exact(self) -> bool:
        return (
            self.attrs_exact
            and self.start_exact
            and not self.paused
            and self.inbox.inexact == 0
            and self.raised.inexact == 0
        )

    def copy(self) -> "_MachineRecord":
        """An independent, cold twin of a *folded* record (``dirty`` is False)."""
        twin = _MachineRecord.__new__(_MachineRecord)
        twin.prefix = self.prefix
        twin.start_exact = self.start_exact
        twin.slow = self.slow
        twin.attrs_exact = self.attrs_exact
        twin.paused = self.paused
        twin.inbox = self.inbox.copy()
        twin.raised = self.raised.copy()
        twin.component = self.component
        twin.exact = self.exact
        twin.dirty = False
        twin.layout = None
        return twin


def _creation_prefix(machine: "Machine") -> "tuple[int, bool]":
    """``(_mix(identity hash, start-arguments hash), start_exact)``."""
    mid = machine._id
    start = machine._start_args
    # Every schedule re-creates the same machines with the same arguments:
    # identity and arguments together are one memo key.
    tokens: List[Any] = [_CREATED]
    try:
        _freeze_machine_id(mid, tokens)
        _FREEZERS[start.__class__](start, tokens)
    except _Unfreezable:
        key = created = None
    else:
        key = tuple(tokens)
        created = _MEMO.get(key)
    if created is None:
        base = stable_hash((mid.value, mid.type_name, mid.name))[0]
        start_hash, start_exact = stable_hash(start)
        created = (_mix(base, start_hash), start_exact)
        if key is not None:
            _MEMO.put(key, created)
    return created


class FingerprintTracker:
    """Incrementally maintained global execution fingerprint.

    The owning runtime calls the ``on_*`` hooks from every queue-mutation
    site (mirroring the enabled-set bookkeeping) and :meth:`touch` once per
    dispatched step for the executed machine — the only machine whose state
    stack, attributes or paused/halted status can have changed during the
    step.  The hooks update the parts of a machine's component and mark it
    dirty; :meth:`current` folds each dirty machine once, however many hooks
    fired on it since the last observation.  Monitors are notified
    synchronously from inside steps, so they are dirty-marked at
    notification and refreshed at the next :meth:`current` query as well.

    Nothing is maintained before anybody looks.  Until the first
    :meth:`current` there are no records, so every hook finds nothing to
    update; that first call builds them from the live machines and queues
    (:meth:`_build`, which is also all :meth:`recompute` does) and
    incremental maintenance continues from there.  A search that replays a
    known decision prefix never observes along it: it hands the tracker the
    :meth:`snapshot` it took at the end of that prefix in an earlier
    execution (:meth:`restore`) and only the steps after it are maintained.
    """

    def __init__(self, runtime: "RuntimeKernel") -> None:
        self._runtime = runtime
        #: False until the first observation (or a restore): no records yet
        self._built = False
        self._restore_expected = False
        #: machine-id value -> ``(prefix, start_exact)`` of the machines
        #: created so far, taken at creation (see :meth:`register_machine`)
        self._created: Dict[int, "tuple[int, bool]"] = {}
        self._records: Dict[int, _MachineRecord] = {}
        self._dirty_records: List[_MachineRecord] = []
        self._monitor_components: Dict[type, int] = {}
        self._monitor_exact: Dict[type, bool] = {}
        self._dirty_monitors: Set[type] = set()
        self._global = 0
        #: count of machines/monitors whose component is currently inexact
        self._inexact = 0
        #: how this tracker came by its records (observability): an
        #: execution of a DFS-family search costs one of the two
        self.builds = 0
        self.restores = 0
        #: :meth:`_refresh` calls, warm ones that found nothing changed, and
        #: attribute values digested again
        self.refreshes = 0
        self.refresh_unchanged = 0
        self.attrs_rehashed = 0

    # ------------------------------------------------------------------
    # machine lifecycle
    # ------------------------------------------------------------------
    def register_machine(self, machine: "Machine") -> None:
        """Start tracking ``machine`` (before its StartEvent is enqueued).

        The start arguments are hashed here, at creation, however much later
        the record itself is built: a handler may mutate an argument it was
        started with, and the prefix is a per-machine constant that must not
        depend on when the first observation happens.
        """
        if self._built:
            self._track(machine, _creation_prefix(machine))
        elif not self._restore_expected:
            self._created[machine._id.value] = _creation_prefix(machine)

    def _track(self, machine: "Machine", created: "tuple[int, bool]") -> _MachineRecord:
        record = self._records[machine._id.value] = _MachineRecord(*created)
        self._refresh(machine, record)
        return record

    def _build(self) -> None:
        """Construct every record from the live machines, queues and monitors.

        The one construction path: the first observation of an execution
        runs it, and :meth:`recompute` runs it on a fresh tracker (which has
        seen no creation, so it derives the prefixes from the machines too).
        """
        self._built = True
        self.builds += 1
        created = self._created
        for machine in self._runtime._machines.values():
            prefix = created.get(machine._id.value) or _creation_prefix(machine)
            record = self._track(machine, prefix)
            for event in machine._inbox:
                record.inbox.append(*stable_hash(event))
            for event in machine._raised:
                record.raised.append(*stable_hash(event))
        created.clear()
        for monitor in self._runtime._monitors.values():
            self.register_monitor(monitor)

    def touch(self, machine: "Machine") -> None:
        """Refresh the slow-changing parts of ``machine``'s component.

        Called once after each dispatched step of ``machine``: the state
        stack, public attributes, paused status and halted flag only change
        while the machine itself executes, so this plus the eager queue
        hooks keeps the component exact without ever scanning other
        machines.
        """
        record = self._records.get(machine._id.value)
        if record is not None:
            self._refresh(machine, record)

    def _refresh(self, machine: "Machine", record: _MachineRecord) -> None:
        """Bring ``record.slow`` up to date with ``machine``.

        Cold (new, out of a snapshot, or the attribute layout changed): the
        machine in this local state, as every schedule passing through it
        finds it, is one memo key for the whole mix.  The first miss turns the
        record warm: from then on one walk re-digests only the attributes that
        differ from last time.  The identical object of an ``_ATOMS`` class is
        unchanged unfrozen; anything else is frozen and its key compared
        ("equal keys, equal encodings" covers mutation in place); what has no
        key (inexact, oversized, cyclic) is encoded again every time.
        """
        self.refreshes += 1
        paused = record.paused = (
            machine._coroutine is not None or machine._pending_receive is not None
        )
        status = (1 if machine._halted else 0) | (2 if paused else 0)
        attrs = machine.__dict__
        layout = _layout_of(attrs)
        state_key = None
        if record.layout is not layout:
            record.layout = None
            tokens: List[Any] = [_MACHINE_STATE, record.prefix, status]
            try:
                _freeze_sequence(machine._state_stack, tokens)
                _freeze_public(attrs, tokens)
            except _Unfreezable:
                pass
            else:
                state_key = tuple(tokens)
                slow = _MEMO.get(state_key)
                if slow is not None:
                    # only what froze, and so encoded exactly, is ever stored
                    record.attrs_exact = True
                    record.slow = slow
                    self._mark_dirty(record)
                    return
            size = len(layout.names)
            record.layout = layout
            record.atoms = [_NO_ATOM] * size
            record.keys = [None] * size
            record.entries = [b""] * size
            record.ctx = record.status = None  # everything counts as changed
        ctx = machine._state_ctx  # one per stack tuple per spec
        changed = status != record.status or ctx is not record.ctx
        exact = True
        atoms, keys, entries = record.atoms, record.keys, record.entries
        for index, name in enumerate(layout.names):
            value = attrs[name]
            if value is atoms[index]:
                continue
            tokens = []
            try:
                _FREEZERS[value.__class__](value, tokens)
            except _Unfreezable:
                key = None
                atoms[index] = _NO_ATOM
            else:
                key = tuple(tokens)
                atoms[index] = value if value.__class__ in _ATOMS else _NO_ATOM
                if key == keys[index]:
                    continue  # rebound to an equal value, or mutated and back
            keys[index] = key
            self.attrs_rehashed += 1
            # one ancestor on the path, as in ``_hash_public_attrs``
            digest, item_exact = _sub_digest(value, {0: 0}, key)
            exact &= item_exact
            entry = layout.digests[index] + digest
            if entry != entries[index]:
                entries[index] = entry
                changed = True
        if not changed:
            self.refresh_unchanged += 1
            return
        if ctx is not record.ctx:
            record.ctx = ctx
            record.stack_hash = stable_hash(machine._state_stack)[0]
        record.status = status
        record.attrs_exact = exact
        record.slow = _mix(
            record.stack_hash, _hash_entries(entries.copy()), status, acc=record.prefix
        )
        if state_key is not None:
            _MEMO.put(state_key, record.slow)
        self._mark_dirty(record)

    def _mark_dirty(self, record: _MachineRecord) -> None:
        if not record.dirty:
            record.dirty = True
            self._dirty_records.append(record)

    def _fold(self, record: _MachineRecord) -> None:
        component = record.fold()
        self._global ^= record.component ^ component
        record.component = component
        record.dirty = False
        exact = record.is_exact()
        if exact != record.exact:
            self._inexact += -1 if exact else 1
            record.exact = exact

    # ------------------------------------------------------------------
    # queue hooks (O(1) on the append/popleft hot paths)
    #
    # An event is hashed once: when it is queued or, if it is already waiting
    # when the records are built, then.  Both give the same value as long as
    # its payload is not mutated after it is sent (which a message-passing
    # program cannot do across machines anyway).
    # ------------------------------------------------------------------
    def on_enqueue(self, machine: "Machine", event: Event) -> None:
        record = self._records.get(machine._id.value)
        if record is not None:
            record.inbox.append(*stable_hash(event))
            self._mark_dirty(record)

    def on_inbox_popleft(self, machine: "Machine") -> None:
        record = self._records.get(machine._id.value)
        if record is not None:
            record.inbox.popleft()
            self._mark_dirty(record)

    def on_inbox_remove(self, machine: "Machine", index: int) -> None:
        record = self._records.get(machine._id.value)
        if record is not None:
            record.inbox.remove_at(index)
            self._mark_dirty(record)

    def on_raise(self, machine: "Machine", event: Event) -> None:
        record = self._records.get(machine._id.value)
        if record is not None:
            record.raised.append(*stable_hash(event))
            self._mark_dirty(record)

    def on_raised_popleft(self, machine: "Machine") -> None:
        record = self._records.get(machine._id.value)
        if record is not None:
            record.raised.popleft()
            self._mark_dirty(record)

    def on_halt_clear(self, machine: "Machine") -> None:
        """Both queues were cleared by a halt (touch refreshes the rest)."""
        record = self._records.get(machine._id.value)
        if record is not None:
            record.inbox.clear()
            record.raised.clear()
            self._mark_dirty(record)

    # ------------------------------------------------------------------
    # monitors (synchronously notified => dirty-marked, lazily refreshed)
    # ------------------------------------------------------------------
    def register_monitor(self, monitor: "Monitor") -> None:
        if self._built:
            self._monitor_components[type(monitor)] = 0
            self._monitor_exact[type(monitor)] = True
            self._dirty_monitors.add(type(monitor))

    def mark_monitor_dirty(self, monitor: "Monitor") -> None:
        if self._built:
            self._dirty_monitors.add(type(monitor))

    def _refresh_monitor(self, monitor_cls: type) -> None:
        monitor = self._runtime._monitors.get(monitor_cls)
        if monitor is None:  # pragma: no cover - defensive
            return
        state = monitor._current_state
        # The bare class name, not the import path: every recorded digest of
        # a system with monitors depends on this encoding.
        state_hash, state_exact = stable_hash((monitor_cls.__name__, state))
        attrs_hash, attrs_exact = _hash_public_attrs(monitor.__dict__)
        component = _mix(state_hash, attrs_hash)
        exact = state_exact and attrs_exact
        self._global ^= self._monitor_components[monitor_cls] ^ component
        self._monitor_components[monitor_cls] = component
        if exact != self._monitor_exact[monitor_cls]:
            self._inexact += -1 if exact else 1
            self._monitor_exact[monitor_cls] = exact

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def current(self) -> Fingerprint:
        """The fingerprint of the current global state."""
        if not self._built:
            self._build()
        if self._dirty_records:
            for record in self._dirty_records:
                self._fold(record)
            self._dirty_records.clear()
        if self._dirty_monitors:
            for monitor_cls in self._dirty_monitors:
                self._refresh_monitor(monitor_cls)
            self._dirty_monitors.clear()
        return Fingerprint(self._global, self._inexact == 0)

    def recompute(self) -> Fingerprint:
        """The fingerprint rebuilt from scratch (for invariant checking).

        A fresh tracker's first observation walks every machine and monitor
        and re-derives the value the incremental bookkeeping should be
        holding; tests assert ``current() == recompute()`` at arbitrary
        points.  Never called on any hot path.
        """
        return FingerprintTracker(self._runtime).current()

    # ------------------------------------------------------------------
    # checkpoints of the derived state (never of the program)
    # ------------------------------------------------------------------
    def snapshot(self) -> tuple:
        """Everything :meth:`current` derives its answer from, as of now.

        Ints, flags and short deques of ``(hash, exact)`` pairs — O(machines
        + queued events).  Opaque to callers; only :meth:`restore` reads it.
        """
        self.current()  # fold what is dirty: a snapshot holds clean records
        return (
            {value: record.copy() for value, record in self._records.items()},
            dict(self._monitor_components),
            dict(self._monitor_exact),
            self._global,
            self._inexact,
        )

    def expect_restore(self) -> None:
        """Promise a :meth:`restore` before anything observes this tracker.

        A machine created on the way to the restored state is in the
        snapshot, creation prefix included, so hashing its start arguments
        again would be thrown away; with the promise made, creations are not
        looked at until the restore.  Should the promise be broken (the
        replayed prefix diverged), the first observation builds the records
        regardless and derives those prefixes from the start arguments as
        they are by then.
        """
        self._restore_expected = True

    def restore(self, snapshot: tuple) -> None:
        """Become the tracker that took ``snapshot``.

        The caller vouches that the program is in the state it was in then
        (a deterministic replay of the same decision prefix).  Hooks that
        fired before are superseded.
        """
        records, components, monitor_exact, self._global, self._inexact = snapshot
        self._records = {value: record.copy() for value, record in records.items()}
        self._monitor_components = dict(components)
        self._monitor_exact = dict(monitor_exact)
        self._dirty_records.clear()
        self._dirty_monitors.clear()
        self._created.clear()
        self._built = True
        self.restores += 1


def tracker_for(runtime: "RuntimeKernel") -> Optional[FingerprintTracker]:
    """The runtime's tracker, if fingerprinting is active (else ``None``)."""
    return getattr(runtime, "_fingerprint", None)


def merge_visited(target: Dict[int, int], entries: "Mapping[int, int]") -> int:
    """Max-merge fully-explored-state entries into ``target``; returns the
    number of entries added or improved.

    A visited entry maps a fingerprint to the most *remaining steps* any
    search has fully explored it with (see stateful search in
    :mod:`repro.core.strategy.dfs_strategy`).  Entries are monotone facts
    about the program — "everything within ``r`` steps of this state has
    been visited" — so merging across searches (and across processes, which
    is how the parallel driver composes dedupe) is sound as long as the
    larger remaining-steps value wins.
    """
    novel = 0
    for fingerprint, remaining in entries.items():
        if remaining > target.get(fingerprint, -1):
            target[fingerprint] = remaining
            novel += 1
    return novel
