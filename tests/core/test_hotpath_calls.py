"""A timing-free guard on the per-step path: Python-level calls per step.

Wall-clock gates drift with the host; a call count does not.  One fixed-seed
500-step execution of ``vnext/extent-node-liveness`` (timer rounds are ~70 %
of its steps, the shape Table 2's wall time is made of) runs under a
``sys.setprofile`` hook that counts Python-level ``call`` events — C calls
are not counted — and the count per scheduling step is held under a bound set
~10 % above what the step path costs today.  A wrapper frame put back between
the timer and the runtime, a key function in a chooser or a generator
expression in a pending query each add 0.7–8 calls per step and fail here
instead of drifting a benchmark.
"""

import sys

import pytest

from repro.core import TestRuntime
from repro.core.registry import get_scenario, load_builtin_scenarios
from repro.core.strategy import create_strategy

#: measured 8.12 (random) and 9.33 (pct) when the bound was set; the step
#: path this replaced measured 11.75 and 17.61.
MAX_CALLS_PER_STEP = {"random": 8.9, "pct": 10.3}


def _run_counting_calls(testcase, config, counted):
    strategy = create_strategy(config)
    strategy.prepare_iteration(0)
    runtime = TestRuntime(strategy, config)
    entry = testcase.build()
    calls = 0

    def count_calls(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    if counted:
        sys.setprofile(count_calls)
    try:
        bug = runtime.run(entry)
    finally:
        sys.setprofile(previous)
    assert bug is None and runtime.step_count == config.max_steps
    return calls / runtime.step_count


@pytest.mark.parametrize("strategy_name", sorted(MAX_CALLS_PER_STEP))
def test_python_calls_per_scheduling_step_stay_under_the_floor(strategy_name):
    load_builtin_scenarios()
    testcase = get_scenario("vnext/extent-node-liveness")
    config = testcase.default_config(strategy=strategy_name, seed=5, iterations=1, max_steps=500)
    # The first execution in a process also builds the per-class specs
    # and handler resolutions; count the one after it, so the
    # number does not depend on which tests ran before this one.
    _run_counting_calls(testcase, config, counted=False)
    per_step = _run_counting_calls(testcase, config, counted=True)
    assert per_step <= MAX_CALLS_PER_STEP[strategy_name], (
        f"{per_step:.2f} Python-level calls per step under {strategy_name}"
    )
