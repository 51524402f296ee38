"""Model statistics: the raw material of Table 1.

Table 1 of the paper reports, per case study, the size of the system-under-
test, the size of the P# test harness, and three structural measures of the
harness: number of machines (#M), number of state transitions (#ST) and
number of action handlers (#AH).  This module computes the same measures for
the Python harnesses in this repository by inspecting the declared machine and
monitor classes and counting source lines of the involved modules.  With the
State DSL the spec also exposes per-state event disciplines, so the rows
additionally count declared states (#S), deferred-event declarations (#DE)
and ignored-event declarations (#IE) — modeling cost that hand-rolled
bookkeeping in a single flat state would hide.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence

from .declarations import ANY_STATE
from .machine import Machine
from .monitors import Monitor


def count_source_lines(modules: Iterable) -> int:
    """Count non-blank, non-comment source lines across ``modules``."""
    total = 0
    for module in modules:
        source = inspect.getsource(module)
        for line in source.splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                total += 1
    return total


def count_state_transitions(machine_classes: Sequence[type]) -> int:
    """Count declared state transitions across harness machine/monitor classes.

    A transition is counted for every (state, event-type) handler binding that
    is declared on a specific state, plus one per declared state for its entry
    point — mirroring how P# counts ``goto`` transitions in its statistics.
    """
    transitions = 0
    for cls in machine_classes:
        spec = cls.spec()
        for (state, _event_type) in spec.handlers:
            if state != ANY_STATE:
                transitions += 1
        transitions += len(spec.states) - 1
    return transitions


def count_action_handlers(machine_classes: Sequence[type]) -> int:
    """Count distinct action handlers (event handlers + entry/exit actions)."""
    return sum(cls.spec().action_handler_count for cls in machine_classes)


def count_states(machine_classes: Sequence[type]) -> int:
    """Count declared states (a class without ``State``s has one, ``"init"``)."""
    return sum(len(cls.spec().states) for cls in machine_classes)


def count_deferred_events(machine_classes: Sequence[type]) -> int:
    """Count (state, deferred event type) declarations across the harness."""
    return sum(cls.spec().deferred_event_count for cls in machine_classes)


def count_ignored_events(machine_classes: Sequence[type]) -> int:
    """Count (state, ignored event type) declarations across the harness."""
    return sum(cls.spec().ignored_event_count for cls in machine_classes)


@dataclass
class HarnessStatistics:
    """The Table 1 row computed for one case study."""

    name: str
    system_loc: int
    harness_loc: int
    num_machines: int
    num_state_transitions: int
    num_action_handlers: int
    bugs_found: int = 0
    num_states: int = 0
    num_deferred_events: int = 0
    num_ignored_events: int = 0

    def as_row(self) -> dict:
        return {
            "system": self.name,
            "system_loc": self.system_loc,
            "bugs": self.bugs_found,
            "harness_loc": self.harness_loc,
            "machines": self.num_machines,
            "states": self.num_states,
            "state_transitions": self.num_state_transitions,
            "action_handlers": self.num_action_handlers,
            "deferred_events": self.num_deferred_events,
            "ignored_events": self.num_ignored_events,
        }


def aggregate_statistics(rows: Sequence[HarnessStatistics]) -> dict:
    """Sum the numeric columns of several Table 1 rows into a totals row.

    Used to aggregate per-case-study (or per-portfolio-worker) statistics
    into one overview row; the ``system`` column lists the merged names.
    The column set is taken from :meth:`HarnessStatistics.as_row`, so the
    two stay in sync by construction.
    """
    dicts = [row.as_row() for row in rows]
    numeric_keys = [key for key in (dicts[0] if dicts else {}) if key != "system"]
    total = {"system": "+".join(entry["system"] for entry in dicts)}
    for key in numeric_keys:
        total[key] = sum(entry[key] for entry in dicts)
    return total


@dataclass
class HarnessDescription:
    """Inputs needed to compute a :class:`HarnessStatistics` row."""

    name: str
    system_modules: List = field(default_factory=list)
    harness_modules: List = field(default_factory=list)
    machine_classes: List[type] = field(default_factory=list)
    bugs_found: int = 0

    def compute(self) -> HarnessStatistics:
        for cls in self.machine_classes:
            if not (issubclass(cls, Machine) or issubclass(cls, Monitor)):
                raise TypeError(f"{cls!r} is neither a Machine nor a Monitor")
        return HarnessStatistics(
            name=self.name,
            system_loc=count_source_lines(self.system_modules),
            harness_loc=count_source_lines(self.harness_modules),
            num_machines=len(self.machine_classes),
            num_state_transitions=count_state_transitions(self.machine_classes),
            num_action_handlers=count_action_handlers(self.machine_classes),
            bugs_found=self.bugs_found,
            num_states=count_states(self.machine_classes),
            num_deferred_events=count_deferred_events(self.machine_classes),
            num_ignored_events=count_ignored_events(self.machine_classes),
        )
