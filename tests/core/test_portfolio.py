"""Tests for report serialization and the parallel portfolio engine."""

import random

import pytest

from repro.core import (
    HuntReport,
    Portfolio,
    TestReport,
    TestingConfig,
    UnitResult,
    replay_trace,
    run_scenario,
)


def _timing_free(payload):
    """Strip run metadata (wall clock, pool size, which worker ran a job) so
    that two runs of the same seeds compare equal on results alone."""
    if isinstance(payload, dict):
        return {
            key: _timing_free(value)
            for key, value in payload.items()
            if key not in ("elapsed_seconds", "time_to_first_bug", "num_workers", "worker")
        }
    if isinstance(payload, list):
        return [_timing_free(entry) for entry in payload]
    return payload


# ---------------------------------------------------------------------------
# TestReport JSON round-trip
# ---------------------------------------------------------------------------
def test_report_json_round_trip_equals_original():
    report = run_scenario(
        "examplesys/safety-bug", TestingConfig(iterations=150, max_steps=600, seed=7)
    )
    assert report.bug_found
    restored = TestReport.from_json(report.to_json())
    assert restored == report
    assert restored.first_bug.trace.steps == report.first_bug.trace.steps
    assert restored.coverage.summary() == report.coverage.summary()


def test_report_round_trip_without_bug():
    report = run_scenario(
        "examplesys/fixed", TestingConfig(iterations=5, max_steps=200, seed=1)
    )
    assert not report.bug_found
    assert TestReport.from_dict(report.to_dict()) == report


# ---------------------------------------------------------------------------
# portfolio
# ---------------------------------------------------------------------------
def test_portfolio_job_enumeration_is_deterministic():
    portfolio = Portfolio(
        "examplesys/safety-bug", strategies=["random", "pct"], iterations=100,
        num_shards=4, seed=3,
    )
    jobs = portfolio.jobs()
    assert [job.index for job in jobs] == list(range(8))
    assert [job.strategy for job in jobs] == ["random"] * 4 + ["pct"] * 4
    assert [job.seed for job in jobs] == [3, 4, 5, 6] * 2
    # The shard budgets sum to the requested total for each strategy.
    assert sum(job.iterations for job in jobs if job.strategy == "random") == 100
    assert portfolio.jobs() == jobs


def test_portfolio_merge_is_deterministic_for_fixed_seeds():
    def run_once(workers):
        return Portfolio(
            "examplesys/safety-bug",
            strategies=["random", "pct"],
            iterations=120,
            num_shards=2,
            num_workers=workers,
            seed=7,
        ).run()

    serial = run_once(1)
    parallel = run_once(2)
    assert serial.bug_found and parallel.bug_found
    # Same seeds => identical merged results, no matter how many workers ran
    # them or in which order they finished (only wall times may differ).
    assert _timing_free(serial.to_dict()) == _timing_free(parallel.to_dict())
    assert serial.winning_result.unit.index == parallel.winning_result.unit.index


def _empty_results(portfolio):
    return [
        UnitResult(job, TestReport(job.strategy, job.iterations))
        for job in portfolio.jobs()
    ]


def test_report_merge_orders_by_job_index_regardless_of_arrival():
    portfolio = Portfolio(
        "examplesys/safety-bug", strategies=["random"], iterations=20, num_shards=3, seed=1
    )
    shuffled = _empty_results(portfolio)
    random.Random(0).shuffle(shuffled)
    report = HuntReport("examplesys/safety-bug", portfolio.config)
    report.merge(shuffled)
    assert [result.unit.index for result in report.results] == [0, 1, 2]


@pytest.mark.parametrize("lost", [0, 1])
def test_report_merge_rejects_missing_and_duplicated_jobs(lost):
    portfolio = Portfolio(
        "examplesys/safety-bug", strategies=["random"], iterations=20, num_shards=3, seed=1
    )
    results = _empty_results(portfolio)
    report = HuntReport("examplesys/safety-bug", portfolio.config)
    with pytest.raises(ValueError, match="one result per job"):
        report.merge(results[:lost] + results[lost + 1:])
    with pytest.raises(ValueError, match="one result per job"):
        report.merge(results + [results[lost]])


def test_portfolio_report_json_round_trip_and_replay():
    report = Portfolio(
        "examplesys/safety-bug",
        strategies=["random", "pct"],
        iterations=150,
        num_workers=2,
        seed=7,
    ).run()
    assert report.bug_found
    restored = HuntReport.from_json(report.to_json())
    assert restored.to_dict() == report.to_dict()
    # The serialized trace replays deterministically against the scenario,
    # reconstructed by name as a fresh process would.
    bug = restored.first_bug
    winner = restored.winning_result
    replayed = replay_trace(restored.scenario, bug.trace, winner.unit.config(restored.config))
    assert replayed is not None
    assert replayed.kind == bug.kind
    assert replayed.message == bug.message


def test_portfolio_rejects_empty_strategy_list():
    with pytest.raises(ValueError, match="at least one strategy"):
        Portfolio("examplesys/safety-bug", strategies=[])


def test_portfolio_budget_smaller_than_shard_count():
    # iterations < num_shards must not produce zero-iteration jobs or
    # overspend; surplus shards are dropped.
    portfolio = Portfolio(
        "examplesys/safety-bug", strategies=["random"], iterations=3, num_shards=4
    )
    jobs = portfolio.jobs()
    assert len(jobs) == 3
    assert all(job.iterations == 1 for job in jobs)
    assert sum(job.iterations for job in jobs) == 3


def test_portfolio_budget_splits_remainder_across_shards():
    jobs = Portfolio(
        "examplesys/safety-bug", strategies=["random"], iterations=10, num_shards=3
    ).jobs()
    assert [job.iterations for job in jobs] == [4, 3, 3]


def test_run_scenario_rejects_config_plus_overrides():
    with pytest.raises(ValueError, match="not both"):
        run_scenario("examplesys/fixed", TestingConfig(iterations=1), seed=5)


# ---------------------------------------------------------------------------
# stop_on_first_bug (early cancellation)
# ---------------------------------------------------------------------------
def test_serial_stop_on_first_bug_cancels_later_jobs_in_index_order():
    portfolio = Portfolio(
        "examplesys/safety-bug",
        strategies=["random", "pct"],
        iterations=400,
        num_shards=2,
        seed=3,
        stop_on_first_bug=True,
    )
    report = portfolio.run()
    assert report.bug_found
    winner = report.winning_result
    assert winner is not None
    assert winner.report.bug_found
    # serial execution walks jobs in index order: everything before the
    # winner ran bug-free to completion, everything after was cancelled
    for result in report.results:
        if result.unit.index < winner.unit.index:
            assert result.report.iterations_executed >= 1
            assert not result.report.bug_found
        elif result.unit.index > winner.unit.index:
            assert result.report.iterations_executed == 0
            assert result.report.iterations_requested == result.unit.iterations
    # job numbering is intact despite the cancellations
    assert [result.unit.index for result in report.results] == list(range(4))
    assert report.stopped_early


def test_pool_stop_on_first_bug_terminates_remaining_jobs():
    portfolio = Portfolio(
        "examplesys/safety-bug",
        strategies=["random"],
        iterations=800,
        num_shards=4,
        num_workers=2,
        seed=3,
        stop_on_first_bug=True,
    )
    report = portfolio.run()
    assert report.bug_found
    # every job appears exactly once, in index order, completed or cancelled
    assert [result.unit.index for result in report.results] == list(range(4))
    # the winner is a job that actually completed, never a placeholder
    assert report.winning_result.report.iterations_executed >= 1
    cancelled = [r for r in report.results if r.report.iterations_executed == 0]
    for result in cancelled:
        assert not result.report.bug_found


def test_stop_on_first_bug_defaults_off_and_runs_everything():
    portfolio = Portfolio(
        "examplesys/safety-bug",
        strategies=["random"],
        iterations=40,
        num_shards=2,
        seed=3,
    )
    report = portfolio.run()
    assert all(result.report.iterations_executed >= 1 for result in report.results)
    assert not report.stopped_early
