"""Uniform random scheduler.

At every scheduling point a machine is chosen uniformly at random from the
enabled set; boolean and integer choices are uniform as well.  Random
scheduling is simple yet remarkably effective at exposing concurrency bugs
(Thomson et al., PPoPP 2014), and is the first of the two schedulers evaluated
in Table 2 of the paper.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..ids import MachineId
from .base import SchedulingStrategy
from .registry import register_strategy


@register_strategy("random")
class RandomStrategy(SchedulingStrategy):
    """Uniformly random scheduling and value choices."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._reseed(random.Random(seed))

    def _reseed(self, rng: random.Random) -> None:
        self._rng = rng
        # Random._randbelow is what randrange(n) delegates to (same value
        # sequence, same RNG consumption) minus the argument-normalization
        # wrapper; next_machine, run once per step, also inlines its loop.
        self._randbelow = rng._randbelow
        self._getrandbits = rng.getrandbits
        self._random = rng.random

    def prepare_iteration(self, iteration: int) -> None:
        self._reseed(random.Random(f"{self.seed}:{iteration}"))

    def next_machine(self, enabled: Sequence[MachineId], step: int) -> MachineId:
        count = len(enabled)
        bits = count.bit_length()  # not (count - 1): count == 1 draws too
        getrandbits = self._getrandbits
        index = getrandbits(bits)
        while index >= count:
            index = getrandbits(bits)
        return enabled[index]

    def next_boolean(self, requester: MachineId, step: int) -> bool:
        return self._random() < 0.5

    def next_integer(self, requester: MachineId, max_value: int, step: int) -> int:
        return self._randbelow(max_value)
