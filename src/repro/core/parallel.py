"""Prefix-partitioned parallel exhaustive search with work stealing.

The exhaustive strategies (``dfs``, ``dpor-lite``, stateful variants) walk
the choice tree one schedule at a time on a single core.  This module drives
them on several processes at once by partitioning the *tree*, not the seed
space: a subtree claim is a frozen prefix of scheduler decisions (see
``DFSStrategy.set_claim``), and the subtrees of distinct claims are disjoint
by construction, so workers never explore the same schedule twice.  It is a
policy over the shared hunt model (:mod:`repro.core.hunt`): claims are
a :class:`~repro.core.hunt.WorkUnit` each, workers are a
:class:`~repro.core.hunt.WorkerPool`, the result is a
:class:`~repro.core.hunt.HuntReport`.

Coordinator/worker protocol
---------------------------

::

    coordinator                         worker 0..N-1
    ───────────                         ─────────────
    pending ── claim+visited ──▶ task queue ──▶ replay frozen prefix,
      ▲                                         exhaust subtree for up to
      │                                         claim_iterations schedules
      └── result queue ◀── report, frontier, ◀──┘
          merge visited    visited delta

The coordinator keeps at most one outstanding claim per worker, so every
dispatched claim carries a fresh snapshot of the *global* visited set.
Work stealing is dynamic: a worker whose claim outlives its per-claim budget
advances the search one last step and exports the unexplored remainder as
sub-claims (``DFSStrategy.export_frontier``) — the current path plus every
unvisited right sibling — which the coordinator re-queues for whichever
worker frees up first, so deep subtrees keep splitting and cores never idle.

Cross-process stateful dedupe composes through fingerprint gossip: each
result carries the visited entries the worker proved (post-order, so each is
a globally valid "fully explored with ``r`` steps remaining" fact), the
coordinator max-merges them (:func:`repro.core.fingerprint.merge_visited`),
and later claims ship the union.  A worker whose claim *prefix* hits a state
another worker already exhausted abandons the whole claim
(``DFSStrategy.claim_covered``) instead of re-exploring it.

Determinism: per-claim reports merge by claim order — the lexicographic
order of the decision-index path, i.e. depth-first order of the subtree
roots — regardless of which worker finished first
(:meth:`repro.core.hunt.HuntReport.merge`, the same merge the portfolio's
jobs go through).  The set of distinct fingerprints (and the set
of bug kinds) is identical to the serial search's: sleep sets and stateful
pruning only ever skip states that some execution, somewhere, still visits.

With ``num_workers=1`` no processes are spawned at all: the scenario runs on
a plain :class:`~repro.core.engine.TestingEngine`, trace-for-trace identical
to the serial strategy.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from .config import TestingConfig
from .engine import TestingEngine
from .fingerprint import merge_visited
from .hunt import ClaimPath, HuntReport, UnitResult, WorkerPool, WorkUnit
from .registry import TestCase, get_scenario
from .strategy.registry import strategy_class


class ParallelExplorer:
    """Exhaust a scenario's bounded schedule space on multiple processes.

    Args:
        scenario: a registered scenario name or a :class:`TestCase`; with
            ``num_workers > 1`` it must be resolvable *by name* in a fresh
            process (i.e. registered, plus ``imports`` for user scenarios).
        strategy: an exhaustive DFS-family strategy name (``dfs`` /
            ``dpor-lite``); the strategy class must support subtree claims.
        num_workers: worker processes; 1 runs serially in-process on a plain
            :class:`TestingEngine` (trace-for-trace identical to a serial
            run of the strategy).
        config: template :class:`TestingConfig`; ``config.iterations`` is
            the *total* execution budget across all claims (the space is
            usually exhausted first), and ``config.strategy`` is overridden.
        claim_iterations: per-claim schedule budget before a worker re-splits
            its subtree for stealing.  Smaller = finer load balancing but
            more claim overhead.
        imports: module names / ``.py`` paths replayed in each worker before
            the registry lookup (the CLI's ``--import``).
        start_method: multiprocessing start method; None = platform default.
        stop_on_first_bug: stop dispatching new claims once a completed
            claim reports a bug (in-flight claims still drain, keeping the
            merge deterministic over completed claims).
    """

    def __init__(
        self,
        scenario: "str | TestCase",
        strategy: str = "dpor-lite",
        num_workers: Optional[int] = None,
        config: Optional[TestingConfig] = None,
        claim_iterations: int = 50,
        imports: Sequence[str] = (),
        start_method: Optional[str] = None,
        stop_on_first_bug: bool = False,
    ) -> None:
        self.testcase = scenario if isinstance(scenario, TestCase) else get_scenario(scenario)
        if not getattr(strategy_class(strategy), "supports_claims", False):
            raise ValueError(
                f"strategy {strategy!r} does not support subtree claims; "
                "parallel exploration needs an exhaustive DFS-family strategy"
            )
        self.strategy = strategy
        self.num_workers = max(1, num_workers if num_workers is not None else os.cpu_count() or 1)
        if claim_iterations < 1:
            raise ValueError("claim_iterations must be >= 1")
        self.claim_iterations = claim_iterations
        base = config if config is not None else self.testcase.default_config()
        self.config = replace(base, strategy=strategy)
        self.imports = tuple(imports)
        self.start_method = start_method
        self.stop_on_first_bug = stop_on_first_bug

    # ------------------------------------------------------------------
    def run(self) -> HuntReport:
        started = time.perf_counter()
        report = HuntReport(
            scenario=self.testcase.name,
            config=self.config,
            imports=self.imports,
            num_workers=self.num_workers,
        )
        if self.num_workers == 1:
            self._run_serial(report)
        else:
            self._run_parallel(report)
        report.elapsed_seconds = time.perf_counter() - started
        return report

    def _claim(self, path: ClaimPath, iterations: int) -> WorkUnit:
        # numbered by HuntReport.merge, once claim order is known
        return WorkUnit(0, self.strategy, self.config.seed, iterations, claim=path)

    def _run_serial(self, report: HuntReport) -> None:
        """One worker: the plain serial engine, wrapped as the root claim."""
        serial = TestingEngine(self.testcase.build(), self.config).run()
        unit = self._claim((), self.config.iterations)
        report.merge([UnitResult(unit, serial, exhausted=serial.state_space_exhausted)])
        report.stopped_early = not serial.state_space_exhausted

    def _run_parallel(self, report: HuntReport) -> None:
        pending: List[ClaimPath] = [()]
        visited: Dict[int, int] = {}
        results: List[UnitResult] = []
        budget = self.config.iterations
        executed = 0
        stopping = False
        with WorkerPool(
            self.num_workers,
            self.testcase.name,
            self.config,
            self.imports,
            self.start_method,
        ) as pool:
            while pending or pool.outstanding:
                if stopping or executed >= budget:
                    if not pool.outstanding:
                        break
                else:
                    # Keep at most one claim outstanding per worker: each
                    # dispatch then carries the freshest visited snapshot,
                    # which is what lets workers skip each other's subtrees.
                    while pending and pool.outstanding < self.num_workers:
                        # LIFO: deepest claims first
                        pool.submit(self._claim(pending.pop(), self.claim_iterations), visited)
                if not pool.outstanding:
                    continue
                outcome = pool.next_outcome()
                merge_visited(visited, outcome.visited_delta)
                # Re-queue in reverse so the LIFO pop dispatches the
                # depth-first-first claim first.
                pending.extend(reversed(outcome.frontier))
                results.append(outcome.result)
                executed += outcome.result.report.iterations_executed
                if self.stop_on_first_bug and outcome.result.report.bug_found:
                    stopping = True
        report.merge(results)
        report.stopped_early = bool(pending) or stopping


def explore_scenario(
    name: str,
    strategy: str = "dpor-lite",
    num_workers: Optional[int] = None,
    config: Optional[TestingConfig] = None,
    **explorer_kwargs,
) -> HuntReport:
    """Convenience wrapper: build a :class:`ParallelExplorer`, run it."""
    return ParallelExplorer(
        name, strategy=strategy, num_workers=num_workers, config=config, **explorer_kwargs
    ).run()


__all__ = ["ParallelExplorer", "explore_scenario"]
