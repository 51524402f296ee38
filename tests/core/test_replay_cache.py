"""Replaying the prefix blind must change nothing but the time it takes.

The DFS-family searches answer every choice on the replayed prefix from what
the choice point recorded on its first visit, skip the runtime's observation
there, and restore the fingerprint tracker from a snapshot instead of
maintaining it along the prefix (``repro.core.strategy.dfs_strategy``,
*Replaying the prefix blind*).  This file holds the differential oracle —
every registered scenario, searched once normally and once with the replay
switched off at its one seam, must produce the same schedules, visited map,
bugs and fingerprint set — and the counters that prove the fast path is the
one that runs, so a silent fall-back fails a count, not a timing.
"""

from functools import lru_cache

import pytest

import repro.core.runtime.testing as testing_runtime
from repro.analysis import independence_for_scenarios
from repro.core import TestingEngine, TestRuntime
from repro.core.fingerprint import FingerprintTracker
from repro.core.registry import all_scenarios, get_scenario, load_builtin_scenarios
from repro.core.strategy import DFSStrategy, DporLiteStrategy

FAILOVER = "vnext/failover-1node"
#: the oracle's bound and budget: small enough to run every scenario six
#: times, deep enough that every search backtracks, prunes and restores
MAX_STEPS = 5
ITERATIONS = 150

MODES = {
    "dfs": (DFSStrategy, False, False),
    "dfs+stateful": (DFSStrategy, True, False),
    "dpor-lite+table+stateful": (DporLiteStrategy, True, True),
}


def _never_played(strategy_cls):
    """``strategy_cls`` with the replay seam closed: every choice takes the
    full path and the runtime observes every state, as before the cache."""

    class NeverPlayed(strategy_cls):
        def _cached(self):
            return None

    return NeverPlayed


def _scenario_names():
    load_builtin_scenarios()
    return [case.name for case in all_scenarios()]


@lru_cache(maxsize=None)
def _table(name):
    return independence_for_scenarios([get_scenario(name)])


def _config(name, mode, max_steps=MAX_STEPS, iterations=ITERATIONS):
    strategy_cls, stateful, with_table = MODES[mode]
    return get_scenario(name).default_config(
        strategy=strategy_cls.name,
        iterations=iterations,
        max_steps=max_steps,
        stop_at_first_bug=False,
        max_bugs=None,
        max_log_records=8,
        stateful=stateful,
        independence=_table(name) if with_table else None,
    )


class Search:
    """One engine run with everything the oracle compares kept."""

    def __init__(self, name, mode, cached=True, **bounds):
        strategy_cls = MODES[mode][0]
        config = _config(name, mode, **bounds)
        if not cached:
            strategy_cls = _never_played(strategy_cls)
        self.strategy = strategy_cls.from_config(config)
        traces = self.traces = []

        class Recording(TestRuntime):
            def run(self, test_entry):
                bug = super().run(test_entry)
                traces.append(tuple(self.trace.steps))
                return bug

        engine = TestingEngine(
            get_scenario(name).build(), config, self.strategy, runtime_cls=Recording
        )
        self.report = engine.run()

    def observables(self):
        report, strategy = self.report, self.strategy
        return {
            "traces": self.traces,
            "iterations": report.iterations_executed,
            "exhausted": report.state_space_exhausted,
            "pruned": strategy.pruned_schedules,
            "visited": strategy._visited,
            "bugs": [(bug.kind, bug.message, tuple(bug.trace.steps)) for bug in report.bugs],
            "fingerprints": report.coverage.fingerprints,
        }


@lru_cache(maxsize=None)
def _cached_search(name, mode):
    return Search(name, mode)


# ---------------------------------------------------------------------------
# differential oracle: replay on == replay off
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", _scenario_names(), ids=lambda name: name.replace("/", "-"))
def test_replayed_search_is_identical_to_the_search_that_never_replays(name, mode):
    cached = _cached_search(name, mode)
    reference = Search(name, mode, cached=False)
    assert reference.strategy.replayed_choices == 0
    expected, actual = reference.observables(), cached.observables()
    for key in expected:
        assert actual[key] == expected[key], key
    assert cached.report.iterations_executed > 1
    assert cached.strategy.replayed_choices > 0


@pytest.mark.parametrize("mode", MODES)
def test_no_scenario_restarts_a_prefix(mode):
    """Every built-in harness keeps README's determinism contract: a replayed
    prefix always finds the choices it recorded."""
    exhausted = 0
    for name in _scenario_names():
        search = _cached_search(name, mode)
        assert search.strategy.prefix_restarts == 0, name
        exhausted += search.report.state_space_exhausted
    assert exhausted > 0, "no scenario exhausts at this bound; the check is too weak"


# ---------------------------------------------------------------------------
# the claim path: frozen prefixes, seeded visited entries, covered claims
# ---------------------------------------------------------------------------
def _explore(claim, visited, cached):
    strategy_cls, config = DporLiteStrategy, _config(FAILOVER, "dpor-lite+table+stateful")
    if not cached:
        strategy_cls = _never_played(strategy_cls)
    engine = TestingEngine(
        get_scenario(FAILOVER).build(), config, strategy_cls.from_config(config)
    )
    outcome = engine.explore_claim(claim, visited=dict(visited))
    report = outcome.report
    return {
        "iterations": report.iterations_executed,
        "bugs": [(bug.kind, bug.message, tuple(bug.trace.steps)) for bug in report.bugs],
        "fingerprints": report.coverage.fingerprints,
        "exhausted": outcome.exhausted,
        "covered": outcome.covered,
        "frontier": outcome.frontier,
        "visited_delta": outcome.visited_delta,
    }


def test_claims_explore_identically_with_and_without_replay():
    # Scout a frontier, exhaust its largest claim to earn visited entries,
    # then explore three other prefixes seeded with them — and one seeded
    # with the whole space's entries, which must come back covered.
    config = _config(FAILOVER, "dpor-lite+table+stateful", iterations=3)
    scout = TestingEngine(get_scenario(FAILOVER).build(), config).explore_claim(())
    frontier = scout.frontier
    assert len(frontier) >= 4
    seed = _explore(frontier[-1], scout.visited_delta, cached=True)["visited_delta"]
    assert seed
    outcomes = []
    for claim in (frontier[1], frontier[len(frontier) // 2], frontier[-2]):
        outcomes.append(_explore(claim, seed, cached=True))
        assert outcomes[-1] == _explore(claim, seed, cached=False)
    assert any(outcome["iterations"] > 1 for outcome in outcomes)

    full = _cached_search(FAILOVER, "dpor-lite+table+stateful")
    assert full.report.state_space_exhausted
    everything = full.strategy._visited
    covered = _explore(frontier[-1], everything, cached=True)
    assert covered["covered"] and covered["iterations"] == 1
    assert covered == _explore(frontier[-1], everything, cached=False)


def test_a_diverged_claim_prefix_still_raises():
    """The recorded answer is not trusted past a changed enabled set: a frozen
    decision that finds a different number of options fails loudly."""
    config = _config(FAILOVER, "dfs+stateful", iterations=3)
    scout = TestingEngine(get_scenario(FAILOVER).build(), config).explore_claim(())
    num_options, index = scout.frontier[-1][0]
    engine = TestingEngine(get_scenario(FAILOVER).build(), config)
    with pytest.raises(RuntimeError, match="claim prefix diverged"):
        engine.explore_claim(((num_options + 1, index),))


# ---------------------------------------------------------------------------
# counters: the fast path is the path
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["dfs+stateful", "dpor-lite+table+stateful"])
def test_counters_show_the_prefix_is_replayed_and_the_tracker_restored(mode, monkeypatch):
    trackers = []

    class Counted(FingerprintTracker):
        def __init__(self, runtime):
            super().__init__(runtime)
            trackers.append(self)

    monkeypatch.setattr(testing_runtime, "FingerprintTracker", Counted)
    search = Search(FAILOVER, mode, max_steps=6, iterations=1_000_000)
    report, strategy = search.report, search.strategy
    assert report.state_space_exhausted

    replayed, observed = strategy.replayed_choices, strategy.observed_choices
    assert replayed / (replayed + observed) >= 0.9, (replayed, observed)
    assert strategy.prefix_restarts == 0

    executions = report.iterations_executed
    assert len(trackers) == executions
    # every execution gets its records exactly one way
    assert all(tracker.builds + tracker.restores == 1 for tracker in trackers)
    restores = sum(tracker.restores for tracker in trackers)
    assert restores >= 0.75 * executions, (restores, executions)
