"""The hunt report and the worker pool every multi-execution run shares.

The paper's method is "run many controlled executions, merge what they
found, replay the winner".  A *hunt* is that, whatever decides which
executions run:

* a :class:`WorkUnit` is one piece of a hunt and carries only what varies
  between pieces — its number, strategy, seed, iteration budget and, for a
  slice of an exhaustive search, the *claim*: the frozen prefix of scheduler
  decisions whose subtree it explores;
* a :class:`HuntReport` holds what is shared — scenario name, the template
  :class:`TestingConfig` (independence table included) and the ``--import``
  specs — once, plus one :class:`UnitResult` per unit in a deterministic
  order, and defines the aggregates, the summary line and the JSON
  round-trip that ``python -m repro run`` / ``replay`` / ``shrink`` exchange;
* a :class:`WorkerPool` runs units of one scenario on worker processes.

The two policies over this model live next door:
:class:`~repro.core.portfolio.Portfolio` (strategies × seed shards, one unit
each) and :class:`~repro.core.parallel.ParallelExplorer` (split one choice
tree into claims, steal work, gossip visited states).

Workers rebuild the scenario *by name* from :mod:`repro.core.registry` after
replaying the hunt's import specs, which is what makes cross-process
execution work without pickling closures — under ``spawn`` (the default on
macOS and Windows, where a fresh worker interpreter knows nothing about the
parent's imports) exactly as under ``fork``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .config import TestingConfig
from .coverage import CoverageTracker
from .engine import TestingEngine, TestReport
from .registry import TestCase, get_scenario, import_scenario_modules
from .runtime import BugInfo
from .shrink import ShrinkResult

#: decision path: ``(num_options, chosen index)`` per choice-tree node
ClaimPath = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class WorkUnit:
    """One unit of a hunt: a portfolio job (``claim is None``) or the
    subtree of an exhaustive search rooted at the decision prefix ``claim``
    (the subtrees of distinct claims are disjoint by construction)."""

    index: int
    strategy: str
    seed: int
    iterations: int
    claim: Optional[ClaimPath] = None

    @property
    def claim_indices(self) -> Tuple[int, ...]:
        """A claim's merge key: depth-first order of subtree roots."""
        return tuple(index for _, index in self.claim or ())

    def config(self, template: TestingConfig) -> TestingConfig:
        """The hunt's shared config specialised to this unit."""
        return replace(
            template, strategy=self.strategy, seed=self.seed, iterations=self.iterations
        )

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "strategy": self.strategy,
            "seed": self.seed,
            "iterations": self.iterations,
            "claim": None if self.claim is None else [list(pair) for pair in self.claim],
        }

    @staticmethod
    def from_dict(payload: dict) -> "WorkUnit":
        claim = payload.get("claim")
        return WorkUnit(
            index=payload["index"],
            strategy=payload["strategy"],
            seed=payload["seed"],
            iterations=payload["iterations"],
            claim=None if claim is None else tuple((int(n), int(i)) for n, i in claim),
        )


@dataclass
class UnitResult:
    """What executing one unit produced."""

    unit: WorkUnit
    report: TestReport
    worker: int = 0
    #: the unit's whole space was explored within its budget
    exhausted: bool = False
    #: claim abandoned: its prefix hit a state another worker had exhausted
    covered: bool = False
    #: sub-claims the worker exported for stealing (0 when exhausted/covered)
    split: int = 0

    def to_dict(self) -> dict:
        return {
            "unit": self.unit.to_dict(),
            "report": self.report.to_dict(),
            "worker": self.worker,
            "exhausted": self.exhausted,
            "covered": self.covered,
            "split": self.split,
        }

    @staticmethod
    def from_dict(payload: dict) -> "UnitResult":
        return UnitResult(
            unit=WorkUnit.from_dict(payload["unit"]),
            report=TestReport.from_dict(payload["report"]),
            worker=payload.get("worker", 0),
            exhausted=payload.get("exhausted", False),
            covered=payload.get("covered", False),
            split=payload.get("split", 0),
        )


class UnitOutcome(NamedTuple):
    """A unit's result plus what a claim hands back to its coordinator."""

    result: UnitResult
    #: unexplored remainder of a claim, as disjoint sub-claims
    frontier: List[ClaimPath]
    #: visited entries the exploration proved, for gossip to other workers
    visited_delta: Dict[int, int]


@dataclass
class HuntReport:
    """Deterministically merged outcome of a hunt."""

    scenario: str
    config: TestingConfig
    imports: Tuple[str, ...] = ()
    results: List[UnitResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    num_workers: int = 1
    #: True when the run stopped before its work was done (total iteration
    #: budget spent, or stop-on-first-bug fired)
    stopped_early: bool = False

    @property
    def has_claims(self) -> bool:
        """Whether this was a claim-partitioned exhaustive search."""
        return any(result.unit.claim is not None for result in self.results)

    @property
    def bug_found(self) -> bool:
        return any(result.report.bug_found for result in self.results)

    @property
    def bugs(self) -> List[BugInfo]:
        """Every bug, in unit order."""
        return [bug for result in self.results for bug in result.report.bugs]

    @property
    def winning_result(self) -> Optional[UnitResult]:
        """The first unit, in merge order, that found a bug — not the one
        that happened to cross the finish line first."""
        for result in self.results:
            if result.report.bug_found:
                return result
        return None

    @property
    def first_bug(self) -> Optional[BugInfo]:
        winner = self.winning_result
        return winner.report.first_bug if winner is not None else None

    @property
    def total_iterations(self) -> int:
        return sum(result.report.iterations_executed for result in self.results)

    @property
    def state_space_exhausted(self) -> bool:
        """Whether a claim-partitioned search covered the whole bounded space.

        A split claim is not itself exhausted — its remainder was re-queued
        as sub-claims — so completeness is the coordinator's invariant: the
        run ended with an empty frontier and no early stop, which means every
        exported sub-claim was eventually exhausted or proven covered.
        """
        return self.has_claims and not self.stopped_early

    @property
    def merged_coverage(self) -> CoverageTracker:
        """Coverage aggregated across every unit's report (unit order)."""
        merged = CoverageTracker()
        for result in self.results:
            merged.merge(result.report.coverage)
        return merged

    def worker_stats(self) -> List[dict]:
        """Per-worker unit/execution tallies (``run --parallel --json``)."""
        stats: Dict[int, dict] = {}
        for result in self.results:
            entry = stats.setdefault(
                result.worker,
                {
                    "worker": result.worker,
                    "claims": 0,
                    "claims_exhausted": 0,
                    "claims_covered": 0,
                    "claims_split": 0,
                    "executions": 0,
                    "bugs": 0,
                    "busy_seconds": 0.0,
                },
            )
            entry["claims"] += 1
            entry["claims_exhausted"] += 1 if result.exhausted else 0
            entry["claims_covered"] += 1 if result.covered else 0
            entry["claims_split"] += 1 if result.split else 0
            entry["executions"] += result.report.iterations_executed
            entry["bugs"] += len(result.report.bugs)
            entry["busy_seconds"] += result.report.elapsed_seconds
        for entry in stats.values():
            entry["busy_seconds"] = round(entry["busy_seconds"], 6)
        return [stats[worker] for worker in sorted(stats)]

    def summary(self) -> str:
        claims = self.has_claims
        strategies = sorted({result.unit.strategy for result in self.results})
        base = (
            f"{'parallel' if claims else 'portfolio'}[{', '.join(strategies)}] "
            f"on {self.scenario!r}: {len(self.results)} "
            f"{'claims' if claims else 'jobs'}, {self.total_iterations} executions "
            f"in {self.elapsed_seconds:.2f}s ({self.num_workers} workers)"
        )
        if self.state_space_exhausted:
            base = f"{base}, space exhausted"
        distinct_states = len(self.merged_coverage.fingerprints)
        if distinct_states:
            base = f"{base}, {distinct_states} distinct states"
        winner = self.winning_result
        if winner is None:
            return f"{base} — no bug found"
        unit, bug = winner.unit, winner.report.first_bug
        if unit.claim is not None:
            finder = f"(claim {list(unit.claim_indices)!r}, worker {winner.worker})"
        else:
            finder = f"by job #{unit.index} ({unit.strategy}, seed {unit.seed})"
        shrink_note = f" [{bug.shrink.summary()}]" if bug.shrink is not None else ""
        return f"{base} — bug found {finder}: {bug.message}{shrink_note}"

    # ------------------------------------------------------------------
    def merge(self, results: Iterable[UnitResult]) -> None:
        """Install ``results`` in deterministic order, however they arrived
        (serial loop, workers racing, results shuffled on the way back).

        Jobs order by their enumeration index; claims by the lexicographic
        order of their decision-index path — depth-first order of the subtree
        roots — and are numbered by that position.
        """
        ordered = sorted(
            results,
            key=lambda r: (r.unit.index,) if r.unit.claim is None else r.unit.claim_indices,
        )
        jobs = [r.unit.index for r in ordered if r.unit.claim is None]
        if jobs != list(range(len(jobs))):
            raise ValueError(
                f"expected one result per job 0..{len(jobs) - 1}, got jobs {jobs}"
            )
        self.results = [
            replace(result, unit=replace(result.unit, index=position))
            for position, result in enumerate(ordered)
        ]

    def shrink_winning_bug(self) -> Optional[ShrinkResult]:
        """Minimize, in place, the trace of the bug :attr:`winning_result`
        selects — exactly the trace users will replay.  Runs in the calling
        process: one bug, one deterministic shrink."""
        winner = self.winning_result
        bug = winner.report.first_bug if winner is not None else None
        if bug is None or bug.trace is None:
            return None
        entry = get_scenario(self.scenario).build()
        return TestingEngine(entry, winner.unit.config(self.config)).shrink_bug(bug)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "config": self.config.to_dict(),
            "imports": list(self.imports),
            "results": [result.to_dict() for result in self.results],
            "elapsed_seconds": self.elapsed_seconds,
            "num_workers": self.num_workers,
            "stopped_early": self.stopped_early,
        }

    @staticmethod
    def from_dict(payload: dict) -> "HuntReport":
        return HuntReport(
            scenario=payload["scenario"],
            config=TestingConfig.from_dict(payload["config"]),
            imports=tuple(payload.get("imports", ())),
            results=[UnitResult.from_dict(entry) for entry in payload.get("results", [])],
            elapsed_seconds=payload.get("elapsed_seconds", 0.0),
            num_workers=payload.get("num_workers", 1),
            stopped_early=payload.get("stopped_early", False),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def from_json(text: str) -> "HuntReport":
        return HuntReport.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @staticmethod
    def load(path: str) -> "HuntReport":
        with open(path, "r", encoding="utf-8") as handle:
            return HuntReport.from_json(handle.read())


# ---------------------------------------------------------------------------
# executing units: in-process and on worker processes
# ---------------------------------------------------------------------------
def execute_unit(
    testcase: TestCase,
    config: TestingConfig,
    unit: WorkUnit,
    visited: Optional[Dict[int, int]] = None,
    worker: int = 0,
) -> UnitOutcome:
    """Run one unit on a fresh engine: a job's full budget, or (a budget's
    worth of) a claim's subtree seeded with other workers' ``visited``."""
    engine = TestingEngine(testcase.build(), unit.config(config))
    if unit.claim is None:
        report = engine.run()
        exhausted = report.state_space_exhausted
        return UnitOutcome(UnitResult(unit, report, worker, exhausted), [], {})
    outcome = engine.explore_claim(unit.claim, visited)
    result = UnitResult(
        unit,
        outcome.report,
        worker,
        outcome.exhausted,
        outcome.covered,
        split=len(outcome.frontier),
    )
    return UnitOutcome(result, outcome.frontier, outcome.visited_delta)


def _init_worker(
    scenario: str, config_payload: dict, imports: Sequence[str]
) -> Tuple[TestCase, TestingConfig]:
    """Per-worker set-up.  Replays the parent's ``--import`` registrations
    first: a spawn-started worker is a fresh interpreter that only knows the
    builtin scenarios, so the lookup by name would otherwise raise."""
    import_scenario_modules(imports)
    return get_scenario(scenario), TestingConfig.from_dict(config_payload)


def _worker_main(
    worker_id: int,
    scenario: str,
    config_payload: dict,
    imports: Sequence[str],
    tasks,
    results,
) -> None:
    """Pull units, execute each, push results — until the ``None`` sentinel.
    Top-level so it pickles under every start method."""
    import traceback

    try:
        testcase, config = _init_worker(scenario, config_payload, imports)
    except Exception:
        results.put({"worker": worker_id, "error": traceback.format_exc()})
        return
    while True:
        task = tasks.get()
        if task is None:
            return
        try:
            outcome = execute_unit(testcase, config, *task, worker=worker_id)
            results.put(
                {
                    "worker": worker_id,
                    "error": None,
                    "result": outcome.result.to_dict(),
                    "frontier": outcome.frontier,
                    "visited_delta": outcome.visited_delta,
                }
            )
        except Exception:
            results.put({"worker": worker_id, "error": traceback.format_exc()})


class WorkerPool:
    """``num_workers`` processes executing units of one scenario.

    The shared ``config`` and ``imports`` cross to each worker once, at
    start-up; a submitted task is only the unit and, for a claim, the visited
    snapshot.  Results come back in completion order.  Use as a context
    manager: leaving the block stops the workers.
    """

    def __init__(
        self,
        num_workers: int,
        scenario: str,
        config: TestingConfig,
        imports: Sequence[str] = (),
        start_method: Optional[str] = None,
    ) -> None:
        # Imported here, not at module top: a serial hunt never forks.
        import multiprocessing

        context = multiprocessing.get_context(start_method)  # None = platform default
        self._tasks = context.Queue()
        self._results = context.Queue()
        #: units submitted whose outcome has not been read yet
        self.outstanding = 0
        payload = config.to_dict()
        self._workers = [
            context.Process(
                target=_worker_main,
                args=(worker_id, scenario, payload, tuple(imports), self._tasks, self._results),
                daemon=True,
            )
            for worker_id in range(num_workers)
        ]
        for worker in self._workers:
            worker.start()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def submit(self, unit: WorkUnit, visited: Optional[Dict[int, int]] = None) -> None:
        # Queue.put pickles in a feeder thread, possibly after the caller has
        # merged more gossip into ``visited`` — hence the snapshot.
        self._tasks.put((unit, None if visited is None else dict(visited)))
        self.outstanding += 1

    def next_outcome(self) -> UnitOutcome:
        """Blocking read of the next finished unit that notices dead workers
        instead of hanging: a worker killed (OOM, signal) between pulling a
        task and pushing its result would otherwise leave the caller blocked
        forever on a unit that never returns."""
        from queue import Empty  # already loaded: the pool's queues import it

        while True:
            try:
                message = self._results.get(timeout=1.0)
                break
            except Empty:
                dead = [worker for worker in self._workers if not worker.is_alive()]
                if dead:
                    codes = [worker.exitcode for worker in dead]
                    raise RuntimeError(
                        f"{len(dead)} worker(s) died without reporting "
                        f"(exit codes {codes})"
                    ) from None
        self.outstanding -= 1
        if message["error"]:
            raise RuntimeError(f"worker {message['worker']} failed:\n{message['error']}")
        return UnitOutcome(
            UnitResult.from_dict(message["result"]),
            message["frontier"],
            message["visited_delta"],
        )

    def close(self) -> None:
        """Stop the workers.  With every outcome read they exit on a
        sentinel; with units still outstanding (a cancelled or failed run)
        they are terminated rather than left to work through the backlog."""
        for worker in self._workers:
            if self.outstanding:
                worker.terminate()
            else:
                self._tasks.put(None)
        for worker in self._workers:
            worker.join(timeout=10)
            if worker.is_alive():  # pragma: no cover - hang safety net
                worker.terminate()
                worker.join(timeout=5)
        for shared_queue in (self._tasks, self._results):
            shared_queue.close()
            shared_queue.cancel_join_thread()


__all__ = [
    "ClaimPath",
    "HuntReport",
    "UnitOutcome",
    "UnitResult",
    "WorkUnit",
    "WorkerPool",
    "execute_unit",
]
