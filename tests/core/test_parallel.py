"""Prefix-partitioned parallel search: claims, stealing, fingerprint gossip.

The load-bearing properties:

* claim partitioning is *complete and disjoint* — driving the subtree claims
  of an exported frontier by hand enumerates exactly the schedules the
  serial search runs, each once;
* the parallel driver finds the same bug kinds and the same distinct-state
  fingerprint set as the serial search (the sets, not just the counts);
* the shared visited set composes across processes under the ``spawn``
  start method and is invariant under ``PYTHONHASHSEED``;
* ``num_workers=1`` is trace-for-trace the serial engine;
* a claim is streamed a slice at a time and split only on demand, and none of
  that changes what is found: on scenarios where some schedules fail and some
  do not, bug signatures, fingerprints and replayability equal the serial
  search's for every slice size and start method.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core import (
    HuntReport,
    ParallelExplorer,
    Portfolio,
    TestCase,
    TestingConfig,
    TestingEngine,
    WorkUnit,
    explore_scenario,
    get_scenario,
    load_builtin_scenarios,
)
from repro.core.fingerprint import merge_visited
from repro.core.hunt import WorkerPool
from repro.core.strategy.dfs_strategy import DFSStrategy

SCENARIO = "vnext/failover-1node"
#: shallow bound: big enough to need several claims, small enough for tests
MAX_STEPS = 5


def _config(**overrides) -> TestingConfig:
    base = dict(
        iterations=1_000_000,
        max_steps=MAX_STEPS,
        stop_at_first_bug=False,
        max_bugs=None,
        max_log_records=8,
        strategy="dfs",
    )
    base.update(overrides)
    return TestingConfig(**base)


def _testcase():
    load_builtin_scenarios()
    return get_scenario(SCENARIO)


def _schedule_digests(report) -> list:
    """One digest per recorded bug trace (used as an execution identity)."""
    return sorted(
        tuple((step.kind, step.value, step.label) for step in bug.trace.steps)
        for bug in report.bugs
        if bug.trace is not None
    )


# ---------------------------------------------------------------------------
# claim mechanics (no processes)
# ---------------------------------------------------------------------------
def _claim(*path) -> WorkUnit:
    return WorkUnit(0, "dfs", 0, 1, claim=tuple(path))


def test_claim_round_trip_and_ordering():
    claim = _claim((3, 1), (2, 0), (4, 2))
    assert WorkUnit.from_dict(claim.to_dict()) == claim
    assert claim.claim_indices == (1, 0, 2)
    # parent sorts before its own sub-claims, siblings sort left to right
    assert _claim((3, 1)).claim_indices < claim.claim_indices
    assert claim.claim_indices < _claim((3, 2)).claim_indices
    # the root claim is a claim, a job is not
    assert WorkUnit.from_dict(_claim().to_dict()).claim == ()
    assert WorkUnit.from_dict(WorkUnit(0, "dfs", 0, 1).to_dict()).claim is None


def test_set_claim_rejects_started_search_and_bad_paths():
    strategy = DFSStrategy()
    with pytest.raises(ValueError):
        strategy.set_claim([(2, 5)])
    strategy = DFSStrategy()
    strategy.set_claim([(2, 1)])
    with pytest.raises(ValueError):
        strategy.set_claim([(2, 0)])


def test_manual_claim_partition_covers_serial_space_exactly():
    """Exhausting every claim of an exported frontier = the serial search.

    Runs the serial DFS to completion, then re-runs it as: explore a few
    schedules, export the frontier, exhaust each sub-claim independently
    (recursing on claims that re-split).  The multiset of executed schedules
    must match the serial run's exactly — proof the partition is complete
    and disjoint, independent of any multiprocessing machinery.
    """
    testcase = _testcase()
    config = _config()
    serial = TestingEngine(testcase.build(), config).run()
    assert serial.state_space_exhausted

    executed = []
    budget_config = _config(iterations=7)
    claims = [()]
    while claims:
        claim = claims.pop()
        engine = TestingEngine(testcase.build(), budget_config)
        outcome = engine.explore_claim(claim)
        executed.append(outcome.report)
        assert not outcome.covered  # stateless search never abandons
        claims.extend(outcome.frontier)

    total = sum(report.iterations_executed for report in executed)
    assert total == serial.iterations_executed
    serial_schedules = _schedule_digests(serial)
    claimed_schedules = sorted(
        digest for report in executed for digest in _schedule_digests(report)
    )
    assert claimed_schedules == serial_schedules


def test_covered_claim_is_abandoned():
    """A claim whose prefix state another search exhausted ends immediately."""
    testcase = _testcase()
    # Fully explore serially (stateful) to harvest a complete visited set.
    first = TestingEngine(testcase.build(), _config(stateful=True))
    outcome_full = first.explore_claim((), visited={})
    assert outcome_full.exhausted
    assert outcome_full.visited_delta  # post-order entries were recorded

    # Re-exploring any non-root claim with that visited set must hit a
    # covered state on the frozen prefix and abandon without fanning out.
    # Build a real claim path from a budget-limited search's frontier.
    scout = TestingEngine(testcase.build(), _config(stateful=True, iterations=2))
    scouted = scout.explore_claim((), visited={})
    assert scouted.frontier, "scout budget should not exhaust the space"
    claim = scouted.frontier[-1]

    worker = TestingEngine(testcase.build(), _config(stateful=True))
    outcome = worker.explore_claim(claim, visited=outcome_full.visited_delta)
    assert outcome.covered
    assert not outcome.frontier
    assert outcome.report.iterations_executed == 1  # one walk-out execution


def test_merge_visited_max_merges():
    target = {1: 3, 2: 5}
    assert merge_visited(target, {1: 4, 2: 2, 3: 1}) == 2
    assert target == {1: 4, 2: 5, 3: 1}
    assert merge_visited(target, {1: 4}) == 0


# ---------------------------------------------------------------------------
# parallel driver (processes)
# ---------------------------------------------------------------------------
def test_single_worker_is_trace_identical_to_serial():
    testcase = _testcase()
    config = _config(strategy="dpor-lite", stateful=True)
    serial = TestingEngine(testcase.build(), config).run()
    parallel = ParallelExplorer(
        testcase, strategy="dpor-lite", num_workers=1, config=config
    ).run()
    assert parallel.state_space_exhausted
    assert len(parallel.results) == 1
    report = parallel.results[0].report
    assert report.iterations_executed == serial.iterations_executed
    assert [bug.to_dict() for bug in report.bugs] == [bug.to_dict() for bug in serial.bugs]
    assert report.coverage.fingerprint_digest() == serial.coverage.fingerprint_digest()


@pytest.mark.parametrize("stateful", [False, True])
def test_parallel_matches_serial_space(stateful):
    testcase = _testcase()
    config = _config(stateful=stateful, fingerprints=True)
    serial = TestingEngine(testcase.build(), config).run()
    parallel = ParallelExplorer(
        testcase, strategy="dfs", num_workers=2, config=config, claim_iterations=9
    ).run()
    assert parallel.state_space_exhausted
    assert {bug.kind for bug in parallel.bugs} == {bug.kind for bug in serial.bugs}
    assert parallel.merged_coverage.fingerprints == serial.coverage.fingerprints
    if not stateful:
        # without dedupe the partition is exact: same schedules, each once
        assert parallel.total_iterations == serial.iterations_executed


def test_parallel_spawn_shares_fingerprints_across_processes():
    """spawn workers (fresh interpreters) still dedupe against each other and
    produce exactly the serial distinct-state set."""
    testcase = _testcase()
    config = _config(strategy="dpor-lite", stateful=True, fingerprints=True)
    serial = TestingEngine(testcase.build(), config).run()
    parallel = ParallelExplorer(
        SCENARIO,
        strategy="dpor-lite",
        num_workers=2,
        config=config,
        claim_iterations=9,
        start_method="spawn",
    ).run()
    assert parallel.state_space_exhausted
    assert parallel.merged_coverage.fingerprints == serial.coverage.fingerprints
    assert {bug.kind for bug in parallel.bugs} == {bug.kind for bug in serial.bugs}
    # gossip engaged: parallel redundancy stays within a small factor
    assert parallel.total_iterations <= 2 * serial.iterations_executed


#: scenarios whose bounded space mixes failing and passing schedules (bound 10,
#: stateful dfs): 714 of 4 804 and 1 609 of 6 149 schedules end in a bug, so
#: "the same bugs as serial" can fail — on ``vnext/failover-1node`` every
#: schedule is the same step-bound artefact and it cannot
MIXED_OUTCOME = ["examplesys/flush-flat-write-during-flush", "fabric/cscale-initialization"]
_serial_runs: dict = {}
_replayed: dict = {}


def _mixed_config() -> TestingConfig:
    return _config(max_steps=10, stateful=True, fingerprints=True)


def _serial_reference(name):
    if name not in _serial_runs:
        load_builtin_scenarios()
        engine = TestingEngine(get_scenario(name).build(), _mixed_config())
        _serial_runs[name] = engine.run()
    return _serial_runs[name]


def _strict_replays(name, bug) -> bool:
    """Replay ``bug.trace`` (once per distinct schedule of the module run)."""
    schedule = (name, tuple((step.kind, step.value) for step in bug.trace.steps))
    if schedule not in _replayed:
        engine = TestingEngine(get_scenario(name).build(), _mixed_config())
        again = engine.replay(bug.trace)
        _replayed[schedule] = again is not None and (again.kind, again.message) == (
            bug.kind,
            bug.message,
        )
    return _replayed[schedule]


@pytest.mark.parametrize("claim_iterations", [1, 7, 10_000])
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
@pytest.mark.parametrize("name", MIXED_OUTCOME)
def test_streamed_claims_find_what_serial_finds_on_mixed_outcomes(
    name, start_method, claim_iterations
):
    serial = _serial_reference(name)
    assert serial.state_space_exhausted
    assert 0 < len(serial.bugs) < serial.iterations_executed  # neither none nor all
    parallel = ParallelExplorer(
        name,
        strategy="dfs",
        num_workers=2,
        config=_mixed_config(),
        claim_iterations=claim_iterations,
        start_method=start_method,
    ).run()
    assert parallel.state_space_exhausted
    signatures = {(bug.kind, bug.message) for bug in parallel.bugs}
    assert signatures == {(bug.kind, bug.message) for bug in serial.bugs}
    assert parallel.merged_coverage.fingerprints == serial.coverage.fingerprints
    assert all(_strict_replays(name, bug) for bug in parallel.bugs)
    # Claims are disjoint and so are the slices of one: no schedule comes back
    # twice.  (A covered claim is left out: its one execution walks out of
    # the abandoned prefix through first branches, which is somebody else's
    # schedule.)
    schedules = [
        digest
        for result in parallel.results
        if not result.covered
        for digest in _schedule_digests(result.report)
    ]
    assert len(set(schedules)) == len(schedules)
    # The only surplus over the serial count is what one worker explored
    # before it could know the other had.
    assert parallel.total_iterations <= 2 * serial.iterations_executed
    if claim_iterations == 10_000:
        # the first slice outlasts the space: one claim, never asked to split
        assert [result.split for result in parallel.results] == [0]


def test_parallel_fingerprint_digest_invariant_under_hashseed():
    """The merged distinct-state set is a pure function of the program: a
    fresh interpreter with a different PYTHONHASHSEED, running the parallel
    search under spawn, reports the same digest."""
    testcase = _testcase()
    config = _config(strategy="dpor-lite", stateful=True, fingerprints=True)
    local = ParallelExplorer(
        testcase, strategy="dpor-lite", num_workers=2, config=config, claim_iterations=9
    ).run()
    digest = local.merged_coverage.fingerprint_digest()

    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import tests.core.test_parallel as mod\n"
        "from repro.core import ParallelExplorer\n"
        "config = mod._config(strategy='dpor-lite', stateful=True, fingerprints=True)\n"
        "report = ParallelExplorer(mod.SCENARIO, strategy='dpor-lite', num_workers=2,\n"
        "                          config=config, claim_iterations=9,\n"
        "                          start_method='spawn').run()\n"
        "assert report.state_space_exhausted\n"
        "print(report.merged_coverage.fingerprint_digest())\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "424242"
    env["PYTHONPATH"] = os.path.join(root, "src")
    result = subprocess.run(
        [sys.executable, "-c", script, root],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=600,
    )
    assert result.stdout.strip() == digest


def test_parallel_stop_on_first_bug_stops_early():
    testcase = _testcase()
    config = _config(strategy="dpor-lite", stateful=True)
    report = ParallelExplorer(
        testcase,
        strategy="dpor-lite",
        num_workers=2,
        config=config,
        claim_iterations=3,
        stop_on_first_bug=True,
    ).run()
    assert report.bug_found
    assert report.winning_result is not None
    # the space was NOT exhausted: claims were cancelled
    assert report.stopped_early
    assert not report.state_space_exhausted


def test_parallel_total_iteration_budget_caps_the_run():
    testcase = _testcase()
    report = ParallelExplorer(
        testcase,
        strategy="dfs",
        num_workers=2,
        config=_config(iterations=30),
        claim_iterations=5,
    ).run()
    # budget plus at most one in-flight claim per worker
    assert 30 <= report.total_iterations <= 30 + 2 * 5
    assert report.stopped_early
    assert not report.state_space_exhausted


def test_parallel_report_round_trip_and_stats():
    testcase = _testcase()
    config = _config(strategy="dpor-lite", stateful=True, fingerprints=True)
    report = ParallelExplorer(
        testcase, strategy="dpor-lite", num_workers=2, config=config, claim_iterations=9
    ).run()
    clone = HuntReport.from_json(report.to_json())
    assert clone.to_dict() == report.to_dict()
    assert clone.state_space_exhausted == report.state_space_exhausted
    assert clone.total_iterations == report.total_iterations
    assert clone.merged_coverage.fingerprint_digest() == report.merged_coverage.fingerprint_digest()
    stats = report.worker_stats()
    assert sum(entry["claims"] for entry in stats) == len(report.results)
    assert sum(entry["executions"] for entry in stats) == report.total_iterations
    # where the time went: reports streamed, and splits the coordinator asked for
    slices = sum(entry["slices"] for entry in stats)
    yields = sum(entry["yields"] for entry in stats)
    assert slices == sum(result.slices for result in report.results) >= len(report.results)
    assert 1 <= yields <= sum(entry["claims_split"] for entry in stats)  # the root, at least
    assert f"({slices} slices, {yields} split on demand)" in report.summary()
    assert clone.worker_stats() == stats

    # claims are numbered in claim (depth-first) order, each with the
    # per-claim budget; the shared config lives on the report, once
    units = [result.unit for result in report.results]
    assert [unit.index for unit in units] == list(range(len(units)))
    assert [unit.claim_indices for unit in units] == sorted(u.claim_indices for u in units)
    assert {unit.iterations for unit in units} == {9}
    assert report.config.iterations == config.iterations


def test_report_mixing_jobs_and_claims_round_trips():
    """One model: a report may hold claim-less and claim-carrying units."""
    jobs = Portfolio(SCENARIO, strategies=["random"], iterations=4, num_shards=2).run()
    claims = ParallelExplorer(
        _testcase(), strategy="dfs", num_workers=1, config=_config(max_steps=3)
    ).run()
    mixed = HuntReport(
        SCENARIO, claims.config, imports=("a.py",), results=jobs.results + claims.results
    )
    assert mixed.has_claims and not jobs.has_claims
    clone = HuntReport.from_json(mixed.to_json())
    assert clone.to_dict() == mixed.to_dict()
    assert [result.unit for result in clone.results] == [result.unit for result in mixed.results]


def test_parallel_rejects_non_exhaustive_strategies():
    testcase = _testcase()
    with pytest.raises(ValueError, match="subtree claims"):
        ParallelExplorer(testcase, strategy="random", num_workers=2)


def test_explore_scenario_convenience():
    load_builtin_scenarios()
    report = explore_scenario(
        SCENARIO, strategy="dfs", num_workers=1, config=_config()
    )
    assert report.state_space_exhausted


# ---------------------------------------------------------------------------
# the worker pool both front-ends share: a dead worker is an error, not a hang
# ---------------------------------------------------------------------------
_FAULT_MODULE = """\
import multiprocessing, os, signal
from repro import scenario
from repro.core import get_scenario, load_builtin_scenarios

executions = 0  # of this worker process, over every unit it runs


@scenario("fault/in-worker")
def in_worker():
    load_builtin_scenarios()
    inner = get_scenario("vnext/failover-1node").build()

    def entry(runtime):
        global executions
        if multiprocessing.parent_process() is not None:  # never the test process
            executions += 1
            if executions > {survives}:
                {fault}
        inner(runtime)

    return entry
"""
_SIGKILL = "os.kill(os.getpid(), signal.SIGKILL)"


def _fault_scenario(tmp_path, survives, fault=_SIGKILL):
    """A scenario registered only in the workers (through ``imports``), whose
    entry runs ``fault`` once its process has completed ``survives``
    executions.  Returns ``(testcase, imports)``."""
    module = tmp_path / "fault_scenario.py"
    module.write_text(_FAULT_MODULE.format(survives=survives, fault=fault))

    def unreachable():
        raise AssertionError("the fault scenario must only run in workers")

    return TestCase(name="fault/in-worker", build=unreachable), (str(module),)


@pytest.mark.parametrize("survives", [0, 9])
@pytest.mark.parametrize("front_end", ["portfolio", "parallel"])
def test_worker_killed_mid_unit_raises_instead_of_hanging(front_end, survives, tmp_path):
    """Fault injection under the configured start method: the scenario's
    entry SIGKILLs the worker executing it — at once, or ten executions in:
    mid-job for the portfolio, with slices of its claims already streamed
    for the parallel search."""
    testcase, imports = _fault_scenario(tmp_path, survives)
    if front_end == "portfolio":
        hunt = Portfolio(
            testcase, strategies=["random"], iterations=40, num_shards=2,
            num_workers=2, config=_config(), imports=imports,
        )
    else:
        hunt = ParallelExplorer(
            testcase, strategy="dfs", num_workers=2, config=_config(),
            claim_iterations=2, imports=imports,
        )

    def wedged(signum, frame):
        raise TimeoutError("run() still blocked 30s after its worker was killed")

    previous = signal.signal(signal.SIGALRM, wedged)
    signal.alarm(30)  # hard stop: a regression fails here rather than wedging CI
    started = time.monotonic()
    try:
        with pytest.raises(RuntimeError, match=r"died without reporting \(exit codes .*-9"):
            hunt.run()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - started < 15


def _two_disjoint_claims():
    """The two largest sub-claims of the root, from a two-schedule scout."""
    scout = TestingEngine(_testcase().build(), _config(iterations=2))
    frontier = scout.explore_claim(()).frontier
    return [WorkUnit(0, "dfs", 0, 2, claim=path) for path in frontier[-2:]]


def test_slices_of_a_killed_worker_are_not_a_finished_claim(tmp_path):
    """Slices streamed, then SIGKILL: what was read stays a partial claim —
    never an outcome with a result, so nothing can merge it as exhausted or
    drop its frontier — and the next read is the named error."""
    testcase, imports = _fault_scenario(tmp_path, survives=21)
    claim = _two_disjoint_claims()[-1]
    outcomes = []
    with pytest.raises(RuntimeError, match=r"died without reporting \(exit codes \[-9"):
        with WorkerPool(1, testcase.name, _config(), imports) as pool:
            pool.submit(claim, grant=1_000_000)  # never asked to yield
            while pool.outstanding:
                outcomes.append(pool.next_outcome())
    assert outcomes, "ten slices went out before the kill"
    assert all(outcome.result is None and not outcome.frontier for outcome in outcomes)
    assert all(outcome.report.iterations_executed == 2 for outcome in outcomes)
    assert pool.outstanding == 1


def test_worker_exception_mid_claim_is_reported_once_and_stops_the_pool(tmp_path):
    testcase, imports = _fault_scenario(tmp_path, 9, 'raise ValueError("boom")')
    with pytest.raises(RuntimeError, match=r"worker \d failed") as caught:
        with WorkerPool(2, testcase.name, _config(), imports) as pool:
            for claim in _two_disjoint_claims():
                pool.submit(claim, grant=1_000_000)
            while pool.outstanding:
                pool.next_outcome()
    assert str(caught.value).count("Traceback") == 1
    assert str(caught.value).count("ValueError: boom") == 1
    # the other worker was mid-claim: terminated, not left to finish it
    assert pool.outstanding == 1
    assert not any(worker.is_alive() for worker in pool._workers)
