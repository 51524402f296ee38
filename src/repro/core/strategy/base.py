"""Scheduling strategy interface.

A strategy answers three questions during an execution:

* which of the currently *enabled* machines runs next,
* what value a controlled boolean choice returns,
* what value a controlled integer choice returns.

The runtime calls :meth:`SchedulingStrategy.prepare_iteration` before each
execution with the iteration index, so strategies can reseed deterministically
(seed + iteration), which makes the whole testing session reproducible.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from ..ids import MachineId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..config import TestingConfig


class SchedulingStrategy(abc.ABC):
    """Base class of every scheduling strategy."""

    #: human-readable name used in reports
    name = "abstract"

    #: canonical registry name, set by ``@register_strategy``
    registered_name = "abstract"

    #: strategies that consult the execution fingerprint set this (or define
    #: a property) so the runtime builds a
    #: :class:`~repro.core.fingerprint.FingerprintTracker` even when
    #: ``TestingConfig.fingerprints`` is off.
    wants_fingerprints = False

    #: True while the next scheduling choice replays a decision this search
    #: already took from the very same global state, so the runtime need not
    #: observe (and re-record the fingerprint of) that state again.  Only an
    #: exhaustive search that re-runs known prefixes ever says so.
    state_known = False

    #: exhaustive strategies that can restrict their search to a *subtree
    #: claim* — a frozen prefix of choice-tree decisions — set this and
    #: implement ``set_claim`` / ``export_frontier`` / ``seed_visited`` (see
    #: :class:`~repro.core.strategy.dfs_strategy.DFSStrategy`).  The parallel
    #: driver (:mod:`repro.core.parallel`) only accepts such strategies.
    supports_claims = False

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        #: set to True by exhaustive strategies (e.g. DFS) once the bounded
        #: state space has been fully explored; the engine stops early.
        self.exhausted = False

    @classmethod
    def from_config(
        cls, config: "TestingConfig", options: Optional[Mapping] = None
    ) -> "SchedulingStrategy":
        """Build an instance from a :class:`TestingConfig`.

        ``options`` is the per-strategy namespace ``config.extra[<name>]``.
        The default implementation only consumes the seed; strategies with
        their own knobs override this.
        """
        return cls(seed=config.seed)

    def prepare_iteration(self, iteration: int) -> None:
        """Reset internal state before execution number ``iteration``."""

    def attach_runtime(self, runtime) -> None:
        """Called by the runtime in its constructor, before any choice.

        Most strategies are oblivious to program state and ignore this (the
        default is a no-op).  Dependence-aware strategies (``dpor-lite``)
        keep the reference to inspect machine inboxes at scheduling points.
        The runtime is rebuilt per iteration, so the hook fires once per
        execution and must not leak state across iterations on its own.
        """

    @abc.abstractmethod
    def next_machine(self, enabled: Sequence[MachineId], step: int) -> MachineId:
        """Choose which enabled machine executes the next step.

        ``enabled`` lists the runnable machines in ascending id (== creation)
        order.  It is an immutable snapshot (a tuple, possibly shared across
        consecutive steps): treat it as read-only — copy it first if you need
        to reorder (``sorted(enabled, key=...)`` does exactly that).
        """

    @abc.abstractmethod
    def next_boolean(self, requester: MachineId, step: int) -> bool:
        """Value of a controlled boolean choice."""

    @abc.abstractmethod
    def next_integer(self, requester: MachineId, max_value: int, step: int) -> int:
        """Value of a controlled integer choice in ``[0, max_value)``."""

    def is_fair(self) -> bool:
        """Whether the strategy is fair (relevant for liveness checking)."""
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} seed={self.seed}>"
