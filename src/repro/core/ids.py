"""Machine identifiers.

A :class:`MachineId` is a small immutable handle used to address a machine.
Machines never hold direct references to each other; they exchange ids and
send events through the runtime, which is what lets the testing runtime
serialize and control every interaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True, init=False)
class MachineId:
    """Unique, hashable handle for a machine instance.

    Attributes:
        value: monotonically increasing integer, unique within a runtime.
        type_name: class name of the machine, for readable traces.
        name: optional user-supplied friendly name (e.g. ``"EN-0"``).
    """

    value: int
    type_name: str = field(compare=False)
    name: str = field(compare=False, default="")

    def __init__(self, value: int, type_name: str, name: str = "") -> None:
        # One frame and one dict update per ``create_machine`` instead of the
        # generated frozen ``__init__`` + ``__post_init__``; assignment still
        # raises ``FrozenInstanceError``.  Ids are stringified once per
        # scheduling step, so the printable form is built here, once.
        label = f"{name or type_name}({value})"
        self.__dict__.update(
            value=value, type_name=type_name, name=name, _str=label, _hash=hash(value)
        )

    def __str__(self) -> str:
        return self._str

    def __hash__(self) -> int:
        # Ids key the runtime's machine table and are hashed on every
        # scheduling step; equality compares ``value`` alone (the other
        # fields are compare=False), so hashing ``value`` alone is consistent.
        return self._hash

    def __repr__(self) -> str:
        return f"MachineId({self.value}, {self.type_name!r}, {self.name!r})"
