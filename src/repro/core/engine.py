"""The systematic testing engine.

The engine repeatedly executes a test entry point (a function that registers
monitors and creates machines on a fresh :class:`~repro.core.runtime.TestRuntime`),
each time under a potentially different schedule, until it either finds a bug
or exhausts its iteration budget — exactly the testing process described in
§2 of the paper.  The result is a :class:`TestReport` containing, for each bug,
the fields reported in Table 2: whether the bug was found, the time it took,
and the number of nondeterministic choices of the buggy execution, plus the
replayable trace.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .config import TestingConfig
from .coverage import CoverageTracker
from .runtime import BugInfo, TestRuntime
from .shrink import Shrinker, ShrinkResult
from .strategy import create_strategy
from .strategy.base import SchedulingStrategy
from .strategy.replay import ReplayStrategy
from .trace import ScheduleTrace

TestEntry = Callable[[TestRuntime], None]


@dataclass
class TestReport:
    """Outcome of a systematic testing session."""

    __test__ = False  # not a pytest test class despite the name

    strategy: str
    iterations_requested: int
    iterations_executed: int = 0
    bugs: List[BugInfo] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    time_to_first_bug: Optional[float] = None
    first_bug_iteration: Optional[int] = None
    coverage: CoverageTracker = field(default_factory=CoverageTracker)
    state_space_exhausted: bool = False

    @property
    def bug_found(self) -> bool:
        return bool(self.bugs)

    @property
    def first_bug(self) -> Optional[BugInfo]:
        return self.bugs[0] if self.bugs else None

    @property
    def num_nondeterministic_choices(self) -> Optional[int]:
        """#NDC of the first buggy execution (the Table 2 column)."""
        bug = self.first_bug
        if bug is None or bug.trace is None:
            return None
        return bug.trace.num_nondeterministic_choices

    def summary(self) -> str:
        if not self.bug_found:
            return (
                f"no bug found: {self.iterations_executed} executions with the "
                f"{self.strategy} scheduler in {self.elapsed_seconds:.2f}s"
            )
        bug = self.first_bug
        # Reports loaded from JSON (or aggregated across workers) may carry
        # bugs without the session-local timing fields; degrade gracefully
        # instead of crashing on formatting None.
        if self.time_to_first_bug is None or self.first_bug_iteration is None:
            return (
                f"bug found by the {self.strategy} scheduler (timing unavailable) "
                f"({self.num_nondeterministic_choices} nondeterministic choices): "
                f"{bug.message}"
            )
        return (
            f"bug found by the {self.strategy} scheduler in {self.time_to_first_bug:.2f}s "
            f"after {self.first_bug_iteration + 1} executions "
            f"({self.num_nondeterministic_choices} nondeterministic choices): {bug.message}"
        )

    # ------------------------------------------------------------------
    # serialization: reports round-trip to JSON so that portfolio workers,
    # result files and the replay CLI can exchange them across processes.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "iterations_requested": self.iterations_requested,
            "iterations_executed": self.iterations_executed,
            "bugs": [bug.to_dict() for bug in self.bugs],
            "elapsed_seconds": self.elapsed_seconds,
            "time_to_first_bug": self.time_to_first_bug,
            "first_bug_iteration": self.first_bug_iteration,
            "coverage": self.coverage.to_dict(),
            "state_space_exhausted": self.state_space_exhausted,
        }

    @staticmethod
    def from_dict(payload: dict) -> "TestReport":
        return TestReport(
            strategy=payload["strategy"],
            iterations_requested=payload["iterations_requested"],
            iterations_executed=payload.get("iterations_executed", 0),
            bugs=[BugInfo.from_dict(entry) for entry in payload.get("bugs", [])],
            elapsed_seconds=payload.get("elapsed_seconds", 0.0),
            time_to_first_bug=payload.get("time_to_first_bug"),
            first_bug_iteration=payload.get("first_bug_iteration"),
            coverage=CoverageTracker.from_dict(payload.get("coverage", {})),
            state_space_exhausted=payload.get("state_space_exhausted", False),
        )

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def from_json(text: str) -> "TestReport":
        return TestReport.from_dict(json.loads(text))

    def absorb(self, later: "TestReport") -> None:
        """Append ``later``, the next slice of the session this report began
        (a claim streams one report per slice, see
        :meth:`TestingEngine.explore_claim`)."""
        if self.time_to_first_bug is None and later.time_to_first_bug is not None:
            self.time_to_first_bug = self.elapsed_seconds + later.time_to_first_bug
            self.first_bug_iteration = later.first_bug_iteration
        self.iterations_executed += later.iterations_executed
        self.bugs.extend(later.bugs)
        self.elapsed_seconds += later.elapsed_seconds
        self.coverage.merge(later.coverage)
        self.state_space_exhausted = later.state_space_exhausted


#: what a claim's explorer is asked at a slice boundary: handed the slice's
#: report and the visited entries proved during it, True means "taken, keep
#: the subtree", False "hand the remainder back"
SliceSink = Callable[[TestReport, Dict[int, int]], bool]


class ClaimOutcome(NamedTuple):
    """Result of exploring one subtree claim (see :meth:`TestingEngine.explore_claim`)."""

    #: the executions no :data:`SliceSink` took: the claim's last slice
    report: TestReport
    #: the claimed subtree was fully explored within the budget
    exhausted: bool
    #: the claim was abandoned: its prefix hit a state another search had
    #: already fully explored (per the seeded visited entries)
    covered: bool
    #: unexplored remainder, split into disjoint sub-claims (empty when
    #: ``exhausted`` or ``covered``); each is a decision-prefix path
    frontier: List[Tuple[Tuple[int, int], ...]]
    #: visited entries proved since the last slice a sink took (fingerprint
    #: -> remaining steps), for gossip to other workers
    visited_delta: Dict[int, int]


class TestingEngine:
    """Drives repeated controlled executions of a test harness.

    Kept as the single-strategy building block; multi-strategy parallel runs
    live in :class:`repro.core.portfolio.Portfolio`, and prefix-partitioned
    parallel exhaustive search in :class:`repro.core.parallel.ParallelExplorer`
    — both compose engines.
    """

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        test_entry: TestEntry,
        config: Optional[TestingConfig] = None,
        strategy: Optional[SchedulingStrategy] = None,
        runtime_cls: type = TestRuntime,
        shrink: bool = False,
    ) -> None:
        self.test_entry = test_entry
        self.config = config or TestingConfig()
        self.strategy = strategy or create_strategy(self.config)
        #: runtime class instantiated per iteration; overridable so the
        #: seed-reference runtime (repro.core._baseline) and the before/after
        #: benchmarks can drive the same engine loop.
        self.runtime_cls = runtime_cls
        #: when True, every bug found by :meth:`run` is shrunk before the
        #: report is returned (``bug.shrunk_trace`` / ``bug.shrink``).
        self.shrink = shrink

    # ------------------------------------------------------------------
    def run(self, first_iteration: int = 0) -> TestReport:
        """Explore executions until a bug is found or the budget is spent.

        ``first_iteration`` is where the strategy's iteration numbering goes
        on when this call continues an earlier one on the same strategy."""
        report = TestReport(strategy=self.strategy.name, iterations_requested=self.config.iterations)
        started = time.perf_counter()
        max_bugs = self.config.max_bugs if self.config.max_bugs is not None else float("inf")
        for iteration in range(first_iteration, first_iteration + self.config.iterations):
            self.strategy.prepare_iteration(iteration)
            if self.strategy.exhausted:
                report.state_space_exhausted = True
                break
            runtime = self.runtime_cls(self.strategy, self.config, coverage=report.coverage)
            bug = runtime.run_and_release(self.test_entry)
            report.iterations_executed += 1
            if bug is not None:
                report.bugs.append(bug)
                if report.time_to_first_bug is None:
                    report.time_to_first_bug = time.perf_counter() - started
                    report.first_bug_iteration = iteration
                if self.config.stop_at_first_bug or len(report.bugs) >= max_bugs:
                    break
        if self.shrink and report.bugs:
            for bug in report.bugs:
                if bug.trace is not None:
                    self.shrink_bug(bug)
        report.elapsed_seconds = time.perf_counter() - started
        return report

    # ------------------------------------------------------------------
    def explore_claim(
        self,
        claim: Sequence[Tuple[int, int]] = (),
        visited: Optional[Dict[int, int]] = None,
        sink: Optional[SliceSink] = None,
    ) -> ClaimOutcome:
        """Explore the subtree rooted at ``claim``, a slice at a time.

        The parallel run path: restricts this engine's exhaustive strategy to
        the decision prefix ``claim``, seeds it with ``visited`` entries from
        other searches and runs slices of ``config.iterations`` executions.
        At the end of a slice that left the subtree unfinished ``sink`` is
        handed the slice's report and the visited entries proved during it:
        True means it took them and the search goes on where it stands — same
        strategy, same stack, iteration numbering continued — with a fresh
        report; False, or no sink, ends the exploration: the search advances
        one last time and the unexplored remainder is exported as sub-claims.
        A slice a bug limit cut short ends it too.  An engine (and its
        strategy) explores exactly one claim; build a fresh one per claim.
        """
        strategy = self.strategy
        if not getattr(strategy, "supports_claims", False):
            raise ValueError(
                f"strategy {strategy.name!r} cannot explore subtree claims "
                "(needs an exhaustive DFS-family strategy)"
            )
        strategy.set_claim(claim)
        if visited:
            strategy.seed_visited(visited)
        executed = 0
        while True:
            report = self.run(executed)
            executed += report.iterations_executed
            if (
                report.iterations_executed < self.config.iterations
                or sink is None
                or not sink(report, strategy.visited_delta)
            ):
                break
            # The sink's consumer may still be reading the dict it was given.
            strategy.visited_delta = {}
        covered = strategy.claim_covered
        exhausted = strategy.exhausted and not covered
        frontier: List[Tuple[Tuple[int, int], ...]] = []
        if not covered and not exhausted and report.iterations_executed > 0:
            # The subtree outlives the exploration: advance past the last
            # executed schedule (recording its post-order visited entries)
            # and hand the rest back for other workers to steal.
            strategy.prepare_iteration(executed)
            covered = strategy.claim_covered
            exhausted = strategy.exhausted and not covered
            if not exhausted and not covered:
                frontier = strategy.export_frontier()
        return ClaimOutcome(
            report=report,
            exhausted=exhausted,
            covered=covered,
            frontier=frontier,
            visited_delta=dict(strategy.visited_delta),
        )

    # ------------------------------------------------------------------
    def replay(self, trace: ScheduleTrace, tolerant: bool = False) -> Optional[BugInfo]:
        """Deterministically re-execute a recorded schedule trace.

        ``tolerant`` selects the guided-replay mode: instead of raising on a
        divergence, the execution falls back to a deterministic default
        schedule (see :class:`~repro.core.strategy.replay.ReplayStrategy`).
        """
        strategy = ReplayStrategy(trace, tolerant=tolerant)
        strategy.prepare_iteration(0)
        return self.runtime_cls(strategy, self.config).run_and_release(self.test_entry)

    def shrink_bug(self, bug: BugInfo) -> ShrinkResult:
        """Minimize ``bug``'s trace and attach ``shrunk_trace``/``shrink``."""
        shrinker = Shrinker(self.test_entry, self.config, runtime_cls=self.runtime_cls)
        return shrinker.shrink_bug(bug)


def run_test(
    test_entry: TestEntry,
    config: Optional[TestingConfig] = None,
    strategy: Optional[SchedulingStrategy] = None,
    shrink: bool = False,
) -> TestReport:
    """Convenience wrapper: build an engine, run it, return the report."""
    return TestingEngine(test_entry, config, strategy, shrink=shrink).run()
