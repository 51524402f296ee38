"""Counterexample shrinking: delta-debugging minimization of bug traces.

A scheduling strategy that finds a bug hands back a
:class:`~repro.core.trace.ScheduleTrace` that is typically thousands of steps
long and mostly noise: random and PCT schedules wander through the state
space before stumbling into the violation.  The :class:`Shrinker` searches
for a much shorter trace that still reproduces the *same bug class*, so the
engineer replays a minimal counterexample instead of the raw run.

The search is a classic delta-debugging loop built on the *tolerant* guided
replay mode of :class:`~repro.core.strategy.replay.ReplayStrategy`: a
candidate trace guides the execution while it matches, and the first
divergence switches to a deterministic default schedule instead of crashing.
Every candidate execution is itself recorded, so whenever a candidate still
triggers the bug the *executed* trace — exact, strictly replayable — becomes
the new best counterexample.  Four passes run to a fixpoint:

* **suffix truncation** — keep only a prefix of the trace and let the
  deterministic default finish the execution;
* **machine projection** — remove every step belonging to one machine (its
  scheduling steps and the value choices it requested), the coordinated
  multi-step removal that single-step passes cannot discover;
* **chunk removal** — remove contiguous blocks of steps, halving the block
  size down to single steps (the ``ddmin`` family);
* **value simplification** — rewrite value choices toward their simplest
  form (booleans to ``False``, integers to ``0``).

A candidate is adopted only if its executed trace is strictly simpler
(shorter, or equally long with smaller value choices), so the loop always
terminates; a replay budget (``TestingConfig.shrink_max_replays``) bounds
the worst case.  Results carry :class:`ShrinkStats` — original/final length,
candidates tried, replays run — which serialize with the bug report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .config import TestingConfig
from .runtime import BugInfo, TestRuntime
from .strategy.replay import ReplayStrategy
from .trace import SCHEDULE, ScheduleTrace, TraceStep

#: The score of a candidate trace: (length, total weight of value choices).
#: Lexicographic comparison makes "strictly better" well-founded, which is
#: what guarantees the shrink loop terminates.
TraceScore = Tuple[int, int]


def trace_score(steps: Sequence[TraceStep]) -> TraceScore:
    """Lexicographic simplicity score of a trace: (length, value weight)."""
    weight = 0
    for step in steps:
        if step.kind != SCHEDULE:
            weight += abs(step.value)
    return (len(steps), weight)


@dataclass
class ShrinkStats:
    """Bookkeeping of one shrink run (serialized with the bug report)."""

    original_length: int
    final_length: int
    candidates_tried: int = 0
    replays_run: int = 0
    passes_completed: int = 0
    budget_exhausted: bool = False

    @property
    def reduction(self) -> float:
        """How many times shorter the shrunk trace is (1.0 = no reduction)."""
        if self.original_length == 0 or self.final_length == 0:
            return 1.0
        return self.original_length / self.final_length

    def summary(self) -> str:
        return (
            f"shrunk {self.original_length} -> {self.final_length} steps "
            f"({self.reduction:.1f}x) with {self.candidates_tried} candidates "
            f"and {self.replays_run} replays"
        )

    def to_dict(self) -> dict:
        return {
            "original_length": self.original_length,
            "final_length": self.final_length,
            "candidates_tried": self.candidates_tried,
            "replays_run": self.replays_run,
            "passes_completed": self.passes_completed,
            "budget_exhausted": self.budget_exhausted,
        }

    @staticmethod
    def from_dict(payload: dict) -> "ShrinkStats":
        return ShrinkStats(
            original_length=int(payload["original_length"]),
            final_length=int(payload["final_length"]),
            candidates_tried=int(payload.get("candidates_tried", 0)),
            replays_run=int(payload.get("replays_run", 0)),
            passes_completed=int(payload.get("passes_completed", 0)),
            budget_exhausted=bool(payload.get("budget_exhausted", False)),
        )


@dataclass
class ShrinkResult:
    """Outcome of shrinking one bug trace."""

    #: the minimized trace; exact (recorded from an actual execution), so it
    #: replays the bug in *strict* replay mode.
    trace: ScheduleTrace
    #: the bug the minimized trace reproduces (same ``kind`` as the original).
    bug: BugInfo
    stats: ShrinkStats

    @property
    def reduced(self) -> bool:
        return self.stats.final_length < self.stats.original_length


#: Prefix fractions tried by the suffix-truncation pass, shortest first (the
#: first adopted candidate is then the most aggressive cut that still works).
_TRUNCATION_FRACTIONS = (0.0, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 3 / 4)


class Shrinker:
    """Delta-debugging driver minimizing one bug trace against a test entry.

    Args:
        test_entry: the test entry the bug was found in (a callable taking a
            fresh :class:`~repro.core.runtime.TestRuntime`).
        config: the :class:`TestingConfig` the bug was found under; candidate
            replays run with the same step bound and liveness settings, which
            is what keeps the reproduced bug in the same class.
        max_replays: candidate-replay budget; defaults to
            ``config.shrink_max_replays``.
        runtime_cls: runtime class used for candidate replays (overridable
            for the same reasons as in :class:`~repro.core.engine.TestingEngine`).
    """

    def __init__(
        self,
        test_entry: Callable,
        config: Optional[TestingConfig] = None,
        *,
        max_replays: Optional[int] = None,
        runtime_cls: type = TestRuntime,
    ) -> None:
        self.test_entry = test_entry
        self.config = config or TestingConfig()
        self.max_replays = (
            max_replays if max_replays is not None else self.config.shrink_max_replays
        )
        self.runtime_cls = runtime_cls

    # ------------------------------------------------------------------
    def shrink(self, bug: BugInfo) -> ShrinkResult:
        """Minimize ``bug``'s recorded trace; returns the best counterexample.

        The original bug is left untouched; use :meth:`shrink_bug` to also
        attach the result to it.
        """
        if bug.trace is None:
            raise ValueError("bug has no recorded trace to shrink")
        steps: List[TraceStep] = list(bug.trace.steps)
        stats = ShrinkStats(original_length=len(steps), final_length=len(steps))
        self._seen = {tuple(steps)}
        best_steps = steps
        best_bug = bug
        improved = True
        while improved and not self._exhausted(stats):
            improved = False
            for pass_fn in (
                self._pass_suffix_truncation,
                self._pass_machine_projection,
                self._pass_chunk_removal,
                self._pass_value_simplification,
            ):
                adopted = pass_fn(best_steps, bug.kind, stats)
                if adopted is not None:
                    best_bug = adopted
                    best_steps = list(adopted.trace.steps)
                    improved = True
            stats.passes_completed += 1
        stats.final_length = len(best_steps)
        trace = best_bug.trace if best_bug.trace is not None else bug.trace
        return ShrinkResult(trace=trace, bug=best_bug, stats=stats)

    def shrink_bug(self, bug: BugInfo) -> ShrinkResult:
        """Shrink ``bug`` and attach ``shrunk_trace``/``shrink`` to it."""
        result = self.shrink(bug)
        bug.shrunk_trace = result.trace
        bug.shrink = result.stats
        return result

    # ------------------------------------------------------------------
    # candidate evaluation
    # ------------------------------------------------------------------
    def _exhausted(self, stats: ShrinkStats) -> bool:
        if stats.replays_run >= self.max_replays:
            stats.budget_exhausted = True
            return True
        return False

    def _replay_candidate(self, steps: Sequence[TraceStep]) -> Optional[BugInfo]:
        """Tolerantly replay a candidate trace; returns the bug found, if any."""
        strategy = ReplayStrategy(ScheduleTrace(steps=list(steps)), tolerant=True)
        strategy.prepare_iteration(0)
        return self.runtime_cls(strategy, self.config).run_and_release(self.test_entry)

    def _try(
        self,
        candidate: Sequence[TraceStep],
        kind: str,
        best_score: TraceScore,
        stats: ShrinkStats,
    ) -> Optional[BugInfo]:
        """Replay ``candidate``; adopt it only if it reproduces the same bug
        class with a strictly simpler *executed* trace."""
        key = tuple(candidate)
        if key in self._seen:
            return None
        self._seen.add(key)
        stats.candidates_tried += 1
        if self._exhausted(stats):
            return None
        stats.replays_run += 1
        found = self._replay_candidate(candidate)
        if found is None or found.kind != kind or found.trace is None:
            return None
        if trace_score(found.trace.steps) >= best_score:
            return None
        # Mark the adopted *executed* trace as seen too: passes regenerate
        # candidates equal to the current best (stale machine sets, all-zero
        # value rewrites of an already-zero trace), and those can never pass
        # the strictly-better score test — don't spend budget replaying them.
        self._seen.add(tuple(found.trace.steps))
        return found

    # ------------------------------------------------------------------
    # passes
    # ------------------------------------------------------------------
    def _pass_suffix_truncation(
        self, steps: List[TraceStep], kind: str, stats: ShrinkStats
    ) -> Optional[BugInfo]:
        """Keep a prefix, let the deterministic default finish the run."""
        best_score = trace_score(steps)
        for fraction in _TRUNCATION_FRACTIONS:
            length = int(len(steps) * fraction)
            found = self._try(steps[:length], kind, best_score, stats)
            if found is not None:
                return found
            if self._exhausted(stats):
                return None
        return None

    def _pass_machine_projection(
        self, steps: List[TraceStep], kind: str, stats: ShrinkStats
    ) -> Optional[BugInfo]:
        """Remove every step belonging to one machine at a time.

        A schedule step carries the machine as its ``value``; a value step
        carries the requesting machine as its ``label`` (the same printable
        label the schedule step records).  Dropping both projects the whole
        machine's activity out of the trace in one candidate — the kind of
        coordinated removal (a send and its far-away handling, a whole retry
        loop) that chunk removal cannot find.
        """
        best = steps
        adopted: Optional[BugInfo] = None
        for value, label in sorted({
            (step.value, step.label) for step in best if step.kind == SCHEDULE
        }):
            candidate = [
                step
                for step in best
                if not (step.kind == SCHEDULE and step.value == value)
                and not (step.kind != SCHEDULE and step.label == label)
            ]
            found = self._try(candidate, kind, trace_score(best), stats)
            if found is not None:
                adopted = found
                best = list(found.trace.steps)
            if self._exhausted(stats):
                return adopted
        return adopted

    def _pass_chunk_removal(
        self, steps: List[TraceStep], kind: str, stats: ShrinkStats
    ) -> Optional[BugInfo]:
        """ddmin-style removal of contiguous chunks, halving the chunk size."""
        best = steps
        adopted: Optional[BugInfo] = None
        size = max(1, len(best) // 2)
        while size >= 1:
            start = 0
            while start < len(best):
                found = self._try(
                    best[:start] + best[start + size:], kind, trace_score(best), stats
                )
                if found is not None:
                    adopted = found
                    best = list(found.trace.steps)
                    # the list shifted under us: re-scan from the same offset,
                    # clamped to the new length by the loop condition.
                else:
                    start += size
                if self._exhausted(stats):
                    return adopted
            size //= 2
        return adopted

    def _pass_value_simplification(
        self, steps: List[TraceStep], kind: str, stats: ShrinkStats
    ) -> Optional[BugInfo]:
        """Rewrite value choices to their simplest form (False / 0)."""
        def zeroed(sequence: Sequence[TraceStep], only: Optional[int] = None) -> List[TraceStep]:
            out = []
            for index, step in enumerate(sequence):
                if step.kind != SCHEDULE and step.value != 0 and (only is None or only == index):
                    out.append(TraceStep(step.kind, 0, step.label))
                else:
                    out.append(step)
            return out

        best = steps
        adopted: Optional[BugInfo] = None
        # All at once first: one replay often nails every noise value.
        found = self._try(zeroed(best), kind, trace_score(best), stats)
        if found is not None:
            return found
        # Then one value step at a time.
        index = 0
        while index < len(best):
            step = best[index]
            if step.kind != SCHEDULE and step.value != 0:
                found = self._try(zeroed(best, only=index), kind, trace_score(best), stats)
                if found is not None:
                    adopted = found
                    best = list(found.trace.steps)
                if self._exhausted(stats):
                    return adopted
            index += 1
        return adopted


# ---------------------------------------------------------------------------
# convenience entry point
# ---------------------------------------------------------------------------
def shrink_bug(
    test_entry: Callable,
    bug: BugInfo,
    config: Optional[TestingConfig] = None,
    *,
    max_replays: Optional[int] = None,
) -> ShrinkResult:
    """Shrink ``bug`` against ``test_entry`` and attach the result to it."""
    return Shrinker(test_entry, config, max_replays=max_replays).shrink_bug(bug)
