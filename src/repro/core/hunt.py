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
* a :class:`WorkerPool` runs units of one scenario on worker processes; a
  claim's results stream back a slice at a time and are folded into the one
  :class:`UnitResult` the report holds.

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
from .engine import SliceSink, TestingEngine, TestReport
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
    #: reports the worker sent for this unit, folded into ``report``
    slices: int = 1
    #: the split was asked for: the pool's yield flag was up at a slice boundary
    yielded: bool = False

    def to_dict(self) -> dict:
        return {
            "unit": self.unit.to_dict(),
            "report": self.report.to_dict(),
            "worker": self.worker,
            "exhausted": self.exhausted,
            "covered": self.covered,
            "split": self.split,
            "slices": self.slices,
            "yielded": self.yielded,
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
            slices=payload.get("slices", 1),
            yielded=payload.get("yielded", False),
        )


class UnitOutcome(NamedTuple):
    """One message from a worker: a slice of a claim still being explored,
    or the end of a unit."""

    #: the finished unit, its slices folded in arrival order; None while the
    #: claim goes on
    result: Optional[UnitResult]
    #: unexplored remainder of a claim, as disjoint sub-claims
    frontier: List[ClaimPath]
    #: visited entries proved since the claim's previous message, for gossip
    #: to other workers
    visited_delta: Dict[int, int]
    #: the executions of this message alone
    report: TestReport


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
                    "slices": 0,
                    "yields": 0,
                },
            )
            entry["claims"] += 1
            entry["claims_exhausted"] += 1 if result.exhausted else 0
            entry["claims_covered"] += 1 if result.covered else 0
            entry["claims_split"] += 1 if result.split else 0
            entry["executions"] += result.report.iterations_executed
            entry["bugs"] += len(result.report.bugs)
            entry["busy_seconds"] += result.report.elapsed_seconds
            entry["slices"] += result.slices
            entry["yields"] += 1 if result.yielded else 0
        for entry in stats.values():
            entry["busy_seconds"] = round(entry["busy_seconds"], 6)
        return [stats[worker] for worker in sorted(stats)]

    def summary(self) -> str:
        claims = self.has_claims
        strategies = sorted({result.unit.strategy for result in self.results})
        units = f"{len(self.results)} jobs"
        if claims:
            slices = sum(result.slices for result in self.results)
            yields = sum(result.yielded for result in self.results)
            units = f"{len(self.results)} claims ({slices} slices, {yields} split on demand)"
        base = (
            f"{'parallel' if claims else 'portfolio'}[{', '.join(strategies)}] "
            f"on {self.scenario!r}: {units}, {self.total_iterations} executions "
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
    sink: Optional[SliceSink] = None,
) -> UnitOutcome:
    """Run one unit on a fresh engine: a job's full budget, or a claim's
    subtree seeded with other workers' ``visited`` — one slice of it, or for
    as long as ``sink`` takes the slices (``TestingEngine.explore_claim``)."""
    engine = TestingEngine(testcase.build(), unit.config(config))
    if unit.claim is None:
        report = engine.run()
        exhausted = report.state_space_exhausted
        return UnitOutcome(UnitResult(unit, report, worker, exhausted), [], {}, report)
    outcome = engine.explore_claim(unit.claim, visited, sink)
    result = UnitResult(
        unit,
        outcome.report,
        worker,
        outcome.exhausted,
        outcome.covered,
        split=len(outcome.frontier),
    )
    return UnitOutcome(result, outcome.frontier, outcome.visited_delta, outcome.report)


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
    yield_flag,
) -> None:
    """Pull units, execute each, push what it produced — until the ``None``
    sentinel.  A claim is streamed: every slice that leaves its subtree
    unfinished goes out at once, without waiting for a reply, and the worker
    keeps the subtree — unless ``yield_flag`` is up or the claim's grant of
    the run's budget cannot cover another slice, which is when it hands the
    remainder back.  Top-level so it pickles under every start method."""
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
        unit, visited, grant = task
        slices = 1
        yielded = False

        def sink(report: TestReport, visited_delta: Dict[int, int]) -> bool:
            nonlocal grant, slices, yielded
            grant -= report.iterations_executed
            yielded = yield_flag.is_set()
            if yielded or grant < unit.iterations:
                return False
            slices += 1
            results.put(
                {
                    "worker": worker_id,
                    "error": None,
                    "report": report.to_dict(),
                    "visited_delta": visited_delta,
                }
            )
            return True

        try:
            outcome = execute_unit(testcase, config, unit, visited, worker_id, sink)
            result = outcome.result
            result.slices = slices
            result.yielded = yielded and bool(outcome.frontier)
            results.put(
                {
                    "worker": worker_id,
                    "error": None,
                    "result": result.to_dict(),
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
    snapshot and its grant of the run's budget.  Outcomes come back in
    arrival order: one per job, one per slice of a claim.  Use as a context
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
        # Bounded: a worker streaming faster than its reader decodes blocks in
        # ``put`` instead of piling reports up in its own feeder buffer.
        self._results = context.Queue(maxsize=2 * num_workers)
        #: up while the coordinator wants claims handed back (:meth:`ask_to_yield`)
        self._yield = context.Event()
        #: units submitted whose end has not been read yet
        self.outstanding = 0
        #: worker -> the slices read so far of the claim it is exploring
        self._folding: Dict[int, TestReport] = {}
        payload = config.to_dict()
        shared = (scenario, payload, tuple(imports), self._tasks, self._results, self._yield)
        self._workers = [
            context.Process(
                target=_worker_main,
                args=(worker_id, *shared),
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

    def submit(
        self, unit: WorkUnit, visited: Optional[Dict[int, int]] = None, grant: int = 0
    ) -> None:
        """Queue ``unit``.  ``grant`` caps a claim: the executions it may run
        before it hands its remainder back whether asked to or not."""
        # Queue.put pickles in a feeder thread, possibly after the caller has
        # merged more gossip into ``visited`` — hence the snapshot.
        self._tasks.put((unit, None if visited is None else dict(visited), grant))
        self.outstanding += 1

    def ask_to_yield(self, wanted: bool) -> None:
        """Raise or lower the flag every worker reads at a slice boundary: up,
        a claim exports its frontier there instead of keeping its subtree."""
        if wanted:
            self._yield.set()
        else:
            self._yield.clear()

    def next_outcome(self) -> UnitOutcome:
        """Blocking read of the next message that notices dead workers
        instead of hanging: a worker killed (OOM, signal) between pulling a
        task and pushing its end would otherwise leave the caller blocked
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
        worker = message["worker"]
        if message["error"]:
            self.outstanding -= 1
            raise RuntimeError(f"worker {worker} failed:\n{message['error']}")
        if "result" not in message:
            report = TestReport.from_dict(message["report"])
            if worker not in self._folding:
                self._folding[worker] = TestReport(report.strategy, report.iterations_requested)
            self._folding[worker].absorb(report)
            return UnitOutcome(None, [], message["visited_delta"], report)
        self.outstanding -= 1
        result = UnitResult.from_dict(message["result"])
        report = result.report
        if worker in self._folding:
            result.report = self._folding.pop(worker)
            result.report.absorb(report)
        return UnitOutcome(result, message["frontier"], message["visited_delta"], report)

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
