"""The hand-rolled choosers against the forms they replaced.

``RandomStrategy.next_machine`` inlines ``Random._randbelow`` and
``PCTStrategy.next_machine`` replaces ``max(enabled, key=...)`` with one loop
over int-keyed priorities.  Both must stay *indistinguishable* from the
reference forms kept here: the same winner at every step and the same RNG
state afterwards (one extra or missing draw would shift every later choice
of the execution, and with it every recorded trace).  Two pinned end-to-end
digests then hold the whole step path — chooser, timer loop, pending queries,
cached schedule records — to the bytes it produced before.
"""

import hashlib
import random

import pytest

from repro.core import PCTStrategy, RandomStrategy, TestRuntime
from repro.core.ids import MachineId
from repro.core.registry import get_scenario, load_builtin_scenarios
from repro.core.strategy import create_strategy

POOL = [MachineId(value, f"M{value}") for value in range(16)]


def _enabled_sets(driver, steps):
    """``(enabled, step)`` pairs: every size from 1 to 16, ascending ids, the
    step counter jumping now and then as value choices make it do."""
    step = 0
    for index in range(steps):
        size = index % 16 + 1
        yield tuple(sorted(driver.sample(POOL, size))), step
        step += 1 if driver.random() < 0.8 else driver.randrange(2, 12)


class _ReferencePCT:
    """PCT's chooser as first written: ``max`` with a key that draws a
    missing priority when asked, priorities keyed by the id itself."""

    def __init__(self, strategy):
        self.rng = random.Random()
        self.rng.setstate(strategy._rng.getstate())
        self.change_points = list(strategy._change_points)
        self.fair_suffix_start = strategy.fair_suffix_start
        self.priorities = {}
        self.demotions = 0

    def _priority_of(self, machine):
        if machine not in self.priorities:
            self.priorities[machine] = self.rng.random()
        return self.priorities[machine]

    def next_machine(self, enabled, step):
        if self.fair_suffix_start is not None and step >= self.fair_suffix_start:
            return enabled[self.rng.randrange(len(enabled))]
        chosen = max(enabled, key=self._priority_of)
        while self.change_points and step >= self.change_points[0]:
            self.change_points.pop(0)
            self.demotions += 1
            self.priorities[chosen] = -float(self.demotions)
            chosen = max(enabled, key=self._priority_of)
        return chosen


@pytest.mark.parametrize("seed", range(8))
def test_pct_chooser_matches_max_with_lazily_drawn_priorities(seed):
    strategy = PCTStrategy(
        seed=seed, priority_switches=5, expected_length=150, fair_suffix_start=220
    )
    strategy.prepare_iteration(seed)
    reference = _ReferencePCT(strategy)
    # Ties: three machines share one priority before the run starts, so the
    # first-maximal rule (ascending id wins) is what separates them.
    for machine in POOL[3:12:4]:
        strategy._priorities[machine.value] = reference.priorities[machine] = 0.75
    fair_steps = 0
    for enabled, step in _enabled_sets(random.Random(seed), 300):
        assert strategy.next_machine(enabled, step) == reference.next_machine(enabled, step)
        assert strategy._rng.getstate() == reference.rng.getstate()
        fair_steps += step >= 220
    assert reference.demotions == 5 and not strategy._change_points
    assert fair_steps > 10, "the sequence must cross into the fair suffix"
    assert {m.value: p for m, p in reference.priorities.items()} == strategy._priorities


@pytest.mark.parametrize("seed", range(8))
def test_random_chooser_matches_randrange(seed):
    strategy = RandomStrategy(seed=seed)
    strategy.prepare_iteration(seed)
    reference = random.Random(f"{seed}:{seed}")
    for enabled, step in _enabled_sets(random.Random(seed), 300):
        assert strategy.next_machine(enabled, step) is enabled[reference.randrange(len(enabled))]
        # value choices share the stream with scheduling choices
        if step % 3 == 0:
            assert strategy.next_boolean(enabled[0], step) == (reference.random() < 0.5)
            assert strategy.next_integer(enabled[0], 7, step) == reference.randrange(7)
        assert strategy._rng.getstate() == reference.getstate()


#: SHA-256 of the trace JSON and of the execution log of one 3000-step
#: execution (seed 5, iteration 0), recorded from the commit before the step
#: path was rewritten.
_PINNED = {
    "random": (
        3570,
        "ef2e61e383cf0998a1d214f0783b88b28458e58f6e446b3622cffdef4d7c0d10",
        "a528730f1e38414ec3c4fbed6349ece3a6ad84a7c0b7a5000c4019d6d643d3e1",
    ),
    "pct": (
        3476,
        "dd8886968d07f964558a5985fdf655e84663910a4de8dcd05fe83022cd46c470",
        "5b70a55361e6568981ef245d23d4acc8b7609485fad95ca14ee471c3052d3990",
    ),
}


@pytest.mark.parametrize("strategy_name", sorted(_PINNED))
def test_extent_node_liveness_trace_is_byte_identical(strategy_name):
    load_builtin_scenarios()
    testcase = get_scenario("vnext/extent-node-liveness")
    config = testcase.default_config(
        strategy=strategy_name, seed=5, iterations=1, max_steps=3000
    )
    strategy = create_strategy(config)
    strategy.prepare_iteration(0)
    runtime = TestRuntime(strategy, config)
    assert runtime.run(testcase.build()) is None
    decisions, trace_digest, log_digest = _PINNED[strategy_name]
    assert (runtime.step_count, len(runtime.trace.steps)) == (3000, decisions)
    assert hashlib.sha256(runtime.trace.to_json().encode()).hexdigest() == trace_digest
    log = "\n".join(runtime.execution_log)
    assert hashlib.sha256(log.encode()).hexdigest() == log_digest
