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

    coordinator                                    worker 0..N-1
    ───────────                                    ─────────────
    pending ── claim, visited, grant ─▶ task queue ─▶ replay the frozen prefix
      ▲                                             ┌▶ explore one slice:
      │  fold report,  ◀─ result queue ◀─ slice: ───┤  claim_iterations schedules
      │  merge visited                    report,   └─ subtree unfinished, flag
      │                                   delta        down, grant left: go on
      │
      └─ re-queue      ◀─ result queue ◀─ end: ─────── flag up or grant spent:
         frontier                         report,      advance once, export the
                                          delta,       frontier (or the subtree
                                          frontier     is exhausted / covered)
    yield flag ─────────────────────────────────────▶ read at each slice boundary

A worker keeps the subtree it was given: at the end of every slice of
``claim_iterations`` schedules it puts that slice's report and the visited
entries proved during it on the result queue — without waiting for a reply,
so its memory holds one slice and the coordinator decodes while it runs —
and carries on with the same engine, strategy and stack.  It hands work back
only on demand.  The pool owns one *yield flag* (a ``multiprocessing.Event``);
the coordinator raises it while the queue of pending claims is empty or a
worker sits idle (so the next worker to finish, or the idle one, would find
nothing), and once ``stop_on_first_bug`` has fired, and lowers it when
``pending`` refills.  A worker that finds the flag up at a slice boundary
advances the search one last step and exports the unexplored remainder as
sub-claims (``DFSStrategy.export_frontier``) — the current path plus every
unvisited right sibling — which the coordinator re-queues.  The coordinator
folds the slices of one claim, in arrival order, into the single
:class:`~repro.core.hunt.UnitResult` the report holds.

The total budget (``config.iterations``) is held by *grants*, not by the
flag: a worker streams ahead of what the coordinator has read, so a flag
raised "at the budget" arrives after the budget is overrun.  Each dispatched
claim is granted an even share of the executions not yet granted (a slice at
the least) and hands its remainder back when the grant cannot cover another
slice; what it did not use returns to the pot when it ends.  So no more than
``budget + claim_iterations`` executions ever run, and a worker idle for
want of a grant raises the flag like one idle for want of a claim.

Cross-process stateful dedupe composes through fingerprint gossip: each
message carries the visited entries the worker proved (post-order, so each is
a globally valid "fully explored with ``r`` steps remaining" fact), the
coordinator max-merges them (:func:`repro.core.fingerprint.merge_visited`),
and every dispatched claim ships a snapshot of the union; a worker learns
nothing new while it keeps a claim, which is the redundancy that remains.  A worker whose claim *prefix* hits a state
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
        claim_iterations: schedules per slice — how often a worker reports
            what it found and checks whether it has been asked to split its
            subtree.  Smaller = quicker to feed an idle worker and fresher
            gossip, but more messages.
        imports: module names / ``.py`` paths replayed in each worker before
            the registry lookup (the CLI's ``--import``).
        start_method: multiprocessing start method; None = platform default.
        stop_on_first_bug: stop dispatching new claims once a slice reports
            a bug (in-flight claims end at their next slice boundary and
            still drain, keeping the merge deterministic over what ran).
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
        #: executions of the total budget not granted to an outstanding claim
        allowance = self.config.iterations
        grants: Dict[ClaimPath, int] = {}
        stopping = False
        with WorkerPool(
            self.num_workers,
            self.testcase.name,
            self.config,
            self.imports,
            self.start_method,
        ) as pool:
            while True:
                while (
                    pending
                    and pool.outstanding < self.num_workers
                    and allowance > 0
                    and not stopping
                ):
                    # An even share of what is left for every idle worker, a
                    # slice at the least: grants never add up to more than the
                    # budget plus that one slice, whatever is still in flight.
                    claim = pending.pop()  # LIFO: deepest claims first
                    grants[claim] = grant = max(
                        self.claim_iterations,
                        allowance // (self.num_workers - pool.outstanding),
                    )
                    allowance -= grant
                    pool.submit(self._claim(claim, self.claim_iterations), visited, grant)
                if not pool.outstanding:
                    break
                # A worker idle after that loop lacks a claim or a grant, and
                # an empty queue means the next one to finish will: either
                # way somebody has to split.
                pool.ask_to_yield(
                    stopping or not pending or pool.outstanding < self.num_workers
                )
                outcome = pool.next_outcome()
                merge_visited(visited, outcome.visited_delta)
                if self.stop_on_first_bug and outcome.report.bug_found:
                    stopping = True
                result = outcome.result
                if result is not None:
                    # Re-queue in reverse so the LIFO pop dispatches the
                    # depth-first-first claim first.
                    pending.extend(reversed(outcome.frontier))
                    results.append(result)
                    allowance += grants.pop(result.unit.claim) - result.report.iterations_executed
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
