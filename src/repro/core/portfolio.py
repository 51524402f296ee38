"""Portfolio testing: strategies × seed shards over one scenario.

The paper's evaluation runs a *portfolio* of schedulers over each harness:
different strategies excel at different bugs, and independent seed shards
multiply throughput.  :class:`Portfolio` is the simplest policy over the
shared hunt model (:mod:`repro.core.hunt`): it enumerates one
:class:`~repro.core.hunt.WorkUnit` per (strategy, seed shard), executes them
in-process or on a :class:`~repro.core.hunt.WorkerPool` — no stealing, no
shared state — and merges the per-unit reports into a deterministic
:class:`~repro.core.hunt.HuntReport`:

* job enumeration order is fixed (strategy order, then shard index), and
  results are merged in that order regardless of which worker finished first,
  so two runs with the same seeds produce the same merged report (modulo wall
  times and worker ids);
* the "winning" bug is the one of the lowest-numbered job that found any, not
  the one that happened to cross the finish line first;
* reports serialize to JSON (traces included), so a portfolio result written
  by ``python -m repro run`` replays later via ``python -m repro replay``.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from .config import TestingConfig
from .engine import TestingEngine, TestReport
from .hunt import HuntReport, UnitResult, WorkerPool, WorkUnit, execute_unit
from .registry import TestCase, get_scenario
from .runtime import BugInfo
from .trace import ScheduleTrace


class Portfolio:
    """Fan one scenario out across strategies × seed shards.

    Args:
        scenario: a registered scenario name or a :class:`TestCase`.
        strategies: strategy names to run (each must be registered).
        iterations: *total* execution budget, split evenly across the shards
            of each strategy (each strategy gets the full budget).
        num_shards: seed shards per strategy; defaults to ``num_workers``.
        num_workers: processes to run jobs on; 1 means serial in-process.
        seed: base seed; shard ``s`` uses ``seed + s``.
        config: template :class:`TestingConfig`; per-job copies override
            ``strategy``/``seed``/``iterations``.  Defaults to the scenario's
            :meth:`~repro.core.registry.TestCase.default_config`.
        imports: module names / ``.py`` paths whose import registers the
            scenario (for user scenarios loaded via ``--import``); replayed
            by each worker at start-up, which is what makes the portfolio
            work under the ``spawn`` start method.
        start_method: multiprocessing start method for the worker pool
            (``"fork"``, ``"spawn"``, ``"forkserver"``); None uses the
            platform default.
        shrink: when True, the winning bug trace (lowest-numbered job that
            found one) is minimized with :class:`~repro.core.shrink.Shrinker`
            before the report is returned, so the saved report already
            carries ``shrunk_trace`` and its shrink statistics.
        stop_on_first_bug: cancel the jobs still running (or not yet
            started) as soon as any job completes with a bug.  Cancelled
            jobs appear in the merged report as zero-execution placeholder
            reports, so job numbering — and therefore the winner, the
            lowest-numbered *completed* job that found a bug — stays
            deterministic given the same set of completed jobs.
    """

    def __init__(
        self,
        scenario: "str | TestCase",
        strategies: Sequence[str] = ("random", "pct"),
        iterations: int = 100,
        num_shards: Optional[int] = None,
        num_workers: int = 1,
        seed: int = 0,
        config: Optional[TestingConfig] = None,
        imports: Sequence[str] = (),
        start_method: Optional[str] = None,
        shrink: bool = False,
        stop_on_first_bug: bool = False,
    ) -> None:
        self.testcase = scenario if isinstance(scenario, TestCase) else get_scenario(scenario)
        if not strategies:
            raise ValueError("a portfolio needs at least one strategy")
        self.strategies = list(strategies)
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.iterations = iterations
        self.num_workers = max(1, num_workers)
        self.num_shards = num_shards if num_shards is not None else self.num_workers
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.seed = seed
        self.config = config if config is not None else self.testcase.default_config()
        self.imports = tuple(imports)
        self.start_method = start_method
        self.shrink = shrink
        self.stop_on_first_bug = stop_on_first_bug

    # ------------------------------------------------------------------
    def jobs(self) -> List[WorkUnit]:
        """Deterministic job enumeration: strategy order, then shard index."""
        # A budget smaller than the shard count drops the surplus shards:
        # every job must run at least one iteration, and the shard budgets
        # must sum exactly to the requested total.
        num_shards = min(self.num_shards, self.iterations)
        base, remainder = divmod(self.iterations, num_shards)
        jobs: List[WorkUnit] = []
        for strategy in self.strategies:
            for shard in range(num_shards):
                iterations = base + (1 if shard < remainder else 0)
                jobs.append(WorkUnit(len(jobs), strategy, self.seed + shard, iterations))
        return jobs

    def run(self) -> HuntReport:
        """Execute every job and return the deterministically merged report."""
        jobs = self.jobs()
        started = time.perf_counter()
        completed: List[UnitResult] = []

        def record(result: UnitResult) -> bool:
            completed.append(result)
            return self.stop_on_first_bug and result.report.bug_found

        if self.num_workers == 1 or len(jobs) == 1:
            for job in jobs:
                if record(execute_unit(self.testcase, self.config, job).result):
                    break
        else:
            # Results stream back in completion order so one bug-finding job
            # can cancel its siblings: leaving the block with jobs still
            # outstanding terminates the workers instead of waiting for them.
            with WorkerPool(
                min(self.num_workers, len(jobs)),
                self.testcase.name,
                self.config,
                self.imports,
                self.start_method,
            ) as pool:
                for job in jobs:
                    pool.submit(job)
                while pool.outstanding:
                    if record(pool.next_outcome().result):
                        break
        ran = {result.unit.index for result in completed}
        report = HuntReport(
            scenario=self.testcase.name,
            config=self.config,
            imports=self.imports,
            num_workers=self.num_workers,
            stopped_early=len(ran) < len(jobs),
        )
        report.merge(
            completed + [self._cancelled(job) for job in jobs if job.index not in ran]
        )
        if self.shrink:
            report.shrink_winning_bug()
        report.elapsed_seconds = time.perf_counter() - started
        return report

    @staticmethod
    def _cancelled(job: WorkUnit) -> UnitResult:
        """Placeholder for a job cancelled by ``stop_on_first_bug``: zero
        executions, so it can never displace a completed job as the winner
        and the merged iteration totals count only real work."""
        return UnitResult(job, TestReport(job.strategy, job.iterations, 0))


# ---------------------------------------------------------------------------
# convenience entry points
# ---------------------------------------------------------------------------
def run_scenario(
    name: str, config: Optional[TestingConfig] = None, **config_overrides
) -> TestReport:
    """Run one registered scenario with a single strategy (serial)."""
    testcase = get_scenario(name)
    if config is not None and config_overrides:
        raise ValueError(
            "pass either an explicit config or keyword overrides, not both: "
            f"got config and {sorted(config_overrides)}"
        )
    if config is None:
        config = testcase.default_config(**config_overrides)
    return TestingEngine(testcase.build(), config).run()


def replay_bug(
    scenario: str, bug: BugInfo, config: Optional[TestingConfig] = None
) -> Optional[BugInfo]:
    """Re-execute a recorded bug trace against its scenario, by name."""
    if bug.trace is None:
        raise ValueError("bug has no recorded trace to replay")
    return replay_trace(scenario, bug.trace, config)


def replay_trace(
    scenario: str, trace: ScheduleTrace, config: Optional[TestingConfig] = None
) -> Optional[BugInfo]:
    """Deterministically re-execute ``trace`` against a registered scenario."""
    testcase = get_scenario(scenario)
    if config is None:
        config = testcase.default_config()
    return TestingEngine(testcase.build(), config).replay(trace)
