"""A timing-free guard on the per-step path: Python-level calls per step.

Wall-clock gates drift with the host; a call count does not.  One fixed-seed
500-step execution of ``vnext/extent-node-liveness`` (timer rounds are ~70 %
of its steps, the shape Table 2's wall time is made of) runs under a
``sys.setprofile`` hook that counts Python-level ``call`` events — C calls
are not counted — and the count per scheduling step is held under a bound set
~10 % above what the step path costs today.  A wrapper frame put back between
the timer and the runtime, a key function in a chooser or a generator
expression in a pending query each add 0.7–8 calls per step and fail here
instead of drifting a benchmark.  The same execution with fingerprints on and
coverage observing every step has its own bound: what a refresh and a fold add
to a step, which a record falling back to re-encoding every attribute doubles.

The execution boundary has the same kind of floor.  ``exhaust-dfs`` is 1 644
six-step schedules re-created from the root, so its time is ``create_machine``
× 7.5, ``StartEvent`` entry, bug recording and teardown, not steps: the second
pair of tests bounds Python-level calls per re-created execution, and the
collector-tracked objects an execution leaves for the cycle collector
(``gc.DEBUG_SAVEALL``) — a back-pointer the release stops cutting, or a frame
put back into ``create_machine``, fails here by name.

The production controller holds a machine step in its pump's frame the way the
testing loop does, and the last test bounds it the same way: Python-level calls
per dispatched event of ``examplesys/service`` on the loop thread — the pump,
``send_event``, the monitor notifications and the handlers they run.
"""

import gc
import os
import sys
import threading

import pytest

from repro.core import ProductionRuntime, TestingEngine, TestRuntime
from repro.examplesys.harness.service import build_service_test
from repro.core.registry import get_scenario, load_builtin_scenarios
from repro.core.strategy import create_strategy

#: measured 8.12 (random) and 9.33 (pct) when the bound was set; the step
#: path this replaced measured 11.75 and 17.61.
MAX_CALLS_PER_STEP = {"random": 8.9, "pct": 10.3}


def _python_calls(thunk, counted=True):
    """``(Python-level call events while thunk() ran, its result)``."""
    calls = 0

    def count_calls(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    if counted:
        sys.setprofile(count_calls)
    try:
        result = thunk()
    finally:
        sys.setprofile(previous)
    return calls, result


def _run_counting_calls(testcase, config, counted):
    strategy = create_strategy(config)
    strategy.prepare_iteration(0)
    runtime = TestRuntime(strategy, config)
    entry = testcase.build()
    calls, bug = _python_calls(lambda: runtime.run(entry), counted)
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


#: With fingerprints on and coverage observing every step, the refresh and the
#: fold ride on each of them: measured 44.7 when the bound was set, with a warm
#: record diffing its attributes; re-keying and re-hashing all of them was 75.6.
MAX_CALLS_PER_OBSERVED_STEP = 52


def test_python_calls_per_observed_step_stay_under_the_floor():
    load_builtin_scenarios()
    testcase = get_scenario("vnext/extent-node-liveness")
    config = testcase.default_config(
        strategy="random", seed=5, iterations=1, max_steps=500, fingerprints=True,
        stop_at_first_bug=False,
    )
    TestingEngine(testcase.build(), config).run()  # specs and resolutions, as above
    calls, report = _python_calls(TestingEngine(testcase.build(), config).run)
    assert not report.bugs and len(report.coverage.fingerprints) > 450
    per_step = calls / config.max_steps
    assert per_step <= MAX_CALLS_PER_OBSERVED_STEP, (
        f"{per_step:.2f} Python-level calls per step with fingerprints on"
    )


#: measured 201.1 (whole 1 644-schedule exhaust) when the bound was set; the
#: execution path this replaced measured 271.2.
MAX_CALLS_PER_EXECUTION = 222

#: measured 17.2 when the bound was set (the harness's own ``ExtentManager ↔
#: ModelNetworkEngine`` cycle, which the framework cannot break); before
#: engine-owned runtimes were released it was 129.9.
MAX_GARBAGE_PER_EXECUTION = 25


def _exhaust_engine(iterations, fingerprints=False):
    """``exhaust-dfs`` as the benchmark configures it, cut to ``iterations``."""
    load_builtin_scenarios()
    testcase = get_scenario("vnext/failover-1node")
    config = testcase.default_config(
        strategy="dfs", seed=0, iterations=iterations, max_steps=6,
        stop_at_first_bug=False, max_bugs=None, max_log_records=16, fingerprints=fingerprints,
    )
    return TestingEngine(testcase.build(), config)


def test_python_calls_per_recreated_execution_stay_under_the_floor():
    _exhaust_engine(5).run()  # per-class specs and resolutions, as above
    calls, report = _python_calls(_exhaust_engine(100000).run)
    assert report.state_space_exhausted and report.iterations_executed == 1644
    assert len(report.bugs) == 1644  # every execution records its bug
    per_execution = calls / report.iterations_executed
    assert per_execution <= MAX_CALLS_PER_EXECUTION, (
        f"{per_execution:.1f} Python-level calls per re-created execution"
    )


@pytest.mark.parametrize("fingerprints", [False, True], ids=["plain", "fingerprints"])
def test_a_finished_execution_leaves_the_collector_only_the_harness_cycle(fingerprints):
    _exhaust_engine(5, fingerprints).run()
    engine = _exhaust_engine(50, fingerprints)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        report = engine.run()
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert report.iterations_executed == 50
    per_execution = garbage / 50
    assert per_execution <= MAX_GARBAGE_PER_EXECUTION, (
        f"{per_execution:.1f} collector-tracked garbage objects per execution"
    )


#: measured 14.9 in all and 9.3 in frames under ``repro/core/`` when the bounds
#: were set; the pump dispatching through ``_dispatch_once`` → ``_dequeue_next``
#: / ``_dispatch_user_event`` and ``send_event`` → ``_deliver`` →
#: ``Machine._enqueue`` measured 24.8 and 19.2.
MAX_CALLS_PER_SERVED_EVENT = 16.5
MAX_CORE_CALLS_PER_SERVED_EVENT = 10.4

_CORE = os.path.join("repro", "core", "")


def _serve_counting_calls(counted):
    """``(all calls, calls under repro/core/)`` per event dispatched, as seen
    by ``threading.setprofile``: the loop thread ``start()`` creates inherits
    the hook, this thread (blocked in ``join``) does not have it."""
    calls = [0, 0]

    def count_calls(frame, event, arg):
        if event == "call":
            calls[0] += 1
            if _CORE in frame.f_code.co_filename:
                calls[1] += 1

    runtime = ProductionRuntime(tick_interval=0.002)
    if counted:
        threading.setprofile(count_calls)
    try:
        bug = runtime.run(build_service_test(num_clients=8, num_requests=100), timeout=120)
    finally:
        threading.setprofile(None)
    assert bug is None and runtime.termination_reason == "quiescence"
    assert runtime.step_count > 8000
    return calls[0] / runtime.step_count, calls[1] / runtime.step_count


def test_python_calls_per_production_event_stay_under_the_floor():
    _serve_counting_calls(counted=False)  # per-class specs and resolutions, as above
    per_event, core_per_event = _serve_counting_calls(counted=True)
    if not sys.flags.dev_mode:  # asyncio's debug mode puts frames of its own on every handle
        assert per_event <= MAX_CALLS_PER_SERVED_EVENT, (
            f"{per_event:.2f} Python-level calls per dispatched event under ProductionRuntime"
        )
    assert core_per_event <= MAX_CORE_CALLS_PER_SERVED_EVENT, (
        f"{core_per_event:.2f} of them in frames under repro/core/"
    )
    assert core_per_event > 5  # the hook did see the loop thread
