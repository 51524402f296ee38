"""Randomized priority-based scheduler.

This is the second scheduler evaluated in Table 2 of the paper: a randomized
priority-based scheduler in the style of PCT (Burckhardt et al., ASPLOS 2010).
Every machine receives a random priority when it first becomes schedulable;
at each scheduling point the highest-priority enabled machine runs.  A small
budget of *priority change points* (the paper used 2) is chosen uniformly at
random over the expected execution length; when a change point is reached the
currently scheduled machine's priority is demoted below every other machine,
which is what perturbs the otherwise deterministic priority order enough to
expose ordering bugs.

Strict priority scheduling is unfair — a machine that keeps sending events to
itself would starve everything else — so, like the "fair PCT" schedulers used
in practice, this implementation optionally switches to uniform random
scheduling after a configurable prefix (``fair_suffix_start`` steps).  The
prefix provides the bug-hunting power of PCT, the suffix provides the fairness
liveness checking needs.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

from ..ids import MachineId
from .base import SchedulingStrategy
from .registry import register_strategy

if TYPE_CHECKING:  # pragma: no cover
    from ..config import TestingConfig


#: drawn priorities lie in [0, 1) and demoted ones are -1.0, -2.0, ...
_BELOW_EVERY_PRIORITY = float("-inf")


@register_strategy("pct", "priority")
class PCTStrategy(SchedulingStrategy):
    """Priority-based scheduling with random priority change points."""

    name = "pct"

    def __init__(
        self,
        seed: int = 0,
        priority_switches: int = 2,
        expected_length: int = 1000,
        fair_suffix_start: int | None = None,
    ) -> None:
        super().__init__(seed)
        self.priority_switches = priority_switches
        self.expected_length = max(1, expected_length)
        self.fair_suffix_start = fair_suffix_start
        self._rng = random.Random(seed)
        #: keyed by ``MachineId.value``: an int hashes in C, a MachineId
        #: calls back into Python (once per enabled machine per step).
        self._priorities: Dict[int, float] = {}
        self._change_points: List[int] = []
        self._low_priority_counter = 0

    @classmethod
    def from_config(
        cls, config: "TestingConfig", options: Optional[Mapping] = None
    ) -> "PCTStrategy":
        """Options namespace ``config.extra["pct"]`` overrides the legacy
        ``pct_*`` fields of :class:`TestingConfig`."""
        options = dict(options or {})
        priority_switches = int(options.get("priority_switches", config.pct_priority_switches))
        fair_suffix = bool(options.get("fair_suffix", config.pct_fair_suffix))
        expected_length = int(options.get("expected_length", config.max_steps))
        fair_suffix_start = options.get(
            "fair_suffix_start", config.max_steps // 5 if fair_suffix else None
        )
        return cls(
            seed=config.seed,
            priority_switches=priority_switches,
            expected_length=expected_length,
            fair_suffix_start=fair_suffix_start,
        )

    def prepare_iteration(self, iteration: int) -> None:
        self._rng = random.Random(f"{self.seed}:{iteration}:pct")
        self._priorities = {}
        self._low_priority_counter = 0
        # Change points must be *distinct*: a duplicate draw would silently
        # spend two of the budgeted priority switches on the same step,
        # demoting one machine fewer than PCT's d-1 guarantee assumes.  Draw
        # until the set fills (identical RNG stream to independent draws when
        # no collision occurs), capped by the number of available steps.
        points: set = set()
        budget = min(self.priority_switches, self.expected_length)
        while len(points) < budget:
            points.add(self._rng.randrange(self.expected_length))
        self._change_points = sorted(points)

    # ------------------------------------------------------------------
    def next_machine(self, enabled: Sequence[MachineId], step: int) -> MachineId:
        fair_start = self.fair_suffix_start
        if fair_start is not None and step >= fair_start:
            return enabled[self._rng.randrange(len(enabled))]
        priorities = self._priorities
        change_points = self._change_points
        while True:
            # First machine of maximal priority, a new machine drawing its
            # priority as the scan reaches it: the winner and RNG consumption
            # of ``max(enabled, key=draw_if_missing)`` without the key calls.
            chosen = None
            highest = _BELOW_EVERY_PRIORITY
            for machine in enabled:
                priority = priorities.get(machine.value)
                if priority is None:
                    priority = priorities[machine.value] = self._rng.random()
                if priority > highest:
                    chosen = machine
                    highest = priority
            # Steps are a shared counter with boolean/integer choices, so
            # several change points can drift past between two scheduling
            # points.  Drain every stale point now — popping only one per
            # call would smear the remaining demotions onto arbitrary later
            # steps.
            if not change_points or step < change_points[0]:
                return chosen
            change_points.pop(0)
            # Demote the chosen machine below everything seen so far.
            self._low_priority_counter += 1
            priorities[chosen.value] = -float(self._low_priority_counter)

    def next_boolean(self, requester: MachineId, step: int) -> bool:
        return self._rng.random() < 0.5

    def next_integer(self, requester: MachineId, max_value: int, step: int) -> int:
        return self._rng.randrange(max_value)

    def is_fair(self) -> bool:
        return self.fair_suffix_start is not None
