"""Regression tests: portfolios with ``--import``-registered scenarios under
the ``spawn`` start method.

Spawn-started workers are fresh interpreters: they re-import ``repro`` but
know nothing about user modules the parent imported, so ``get_scenario``
would raise ``KeyError`` for any user scenario on macOS/Windows (where spawn
is the default).  The hunt carries its import specs and every pool worker
replays them at start-up.
"""

import multiprocessing
import os

import pytest

from repro.core.hunt import HuntReport, WorkUnit, _init_worker, execute_unit
from repro.core.portfolio import Portfolio
from repro.core.registry import import_scenario_modules

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
QUICKSTART = os.path.join(REPO_ROOT, "examples", "quickstart.py")


@pytest.fixture()
def quickstart_scenario():
    import_scenario_modules([QUICKSTART])
    return "quickstart/dropped-response"


def test_report_round_trips_imports_and_units(quickstart_scenario):
    portfolio = Portfolio(
        quickstart_scenario,
        strategies=["random"],
        iterations=2,
        imports=(QUICKSTART,),
    )
    job = portfolio.jobs()[0]
    assert WorkUnit.from_dict(job.to_dict()) == job
    report = portfolio.run()
    assert report.imports == (QUICKSTART,)
    assert HuntReport.from_json(report.to_json()).imports == (QUICKSTART,)


def test_worker_initialiser_reimports_user_scenarios(quickstart_scenario):
    """The pool's per-worker set-up resolves a user scenario from what the
    parent hands a worker process alone: name, config dict, import specs."""
    portfolio = Portfolio(
        quickstart_scenario,
        strategies=["random"],
        iterations=2,
        seed=5,
        imports=(QUICKSTART,),
    )
    testcase, config = _init_worker(
        quickstart_scenario, portfolio.config.to_dict(), portfolio.imports
    )
    assert testcase.name == quickstart_scenario
    assert config == portfolio.config
    result = execute_unit(testcase, config, portfolio.jobs()[0]).result
    assert result.unit.index == 0
    assert result.report.iterations_executed >= 1


def test_spawn_portfolio_runs_imported_scenario(quickstart_scenario):
    """End to end: spawn workers re-import the scenario and match serial results."""
    def build(num_workers):
        return Portfolio(
            quickstart_scenario,
            strategies=["random"],
            iterations=4,
            num_shards=2,
            num_workers=num_workers,
            seed=3,
            imports=(QUICKSTART,),
            start_method="spawn" if num_workers > 1 else None,
        )

    serial = build(1).run()
    spawned = build(2).run()

    def fingerprint(report):
        return [
            (r.unit.index, r.unit.strategy, r.unit.seed,
             r.report.iterations_executed, r.report.bug_found)
            for r in report.results
        ]

    assert fingerprint(spawned) == fingerprint(serial)
    assert spawned.num_workers == 2


def test_spawn_context_available():
    """The platform must offer spawn for the regression above to be meaningful."""
    assert "spawn" in multiprocessing.get_all_start_methods()


def test_spawn_portfolio_merges_fingerprint_coverage_deterministically():
    """State fingerprints survive the worker JSON round-trip and merge to the
    same set whether jobs run serially or in spawned processes."""
    from repro.core import get_scenario

    testcase = get_scenario("examplesys/safety-bug")

    def build(num_workers):
        return Portfolio(
            testcase,
            strategies=["random", "round-robin"],
            iterations=8,
            num_shards=2,
            num_workers=num_workers,
            seed=3,
            config=testcase.default_config(fingerprints=True),
            start_method="spawn" if num_workers > 1 else None,
        )

    serial = build(1).run()
    spawned = build(2).run()

    merged_serial = serial.merged_coverage
    merged_spawned = spawned.merged_coverage
    assert len(merged_serial.fingerprints) > 0
    assert merged_spawned.fingerprints == merged_serial.fingerprints
    # the merged set is exactly the union of the per-job sets
    union = set()
    for result in spawned.results:
        union |= result.report.coverage.fingerprints
    assert merged_spawned.fingerprints == union
    # distinct-state count surfaces in the portfolio summary line
    assert f"{len(merged_spawned.fingerprints)} distinct states" in spawned.summary()
