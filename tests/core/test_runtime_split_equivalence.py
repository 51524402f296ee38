"""Kernel/controller split: byte-identical ScheduleTrace JSON vs. pre-split.

The layered-runtime refactor (shared :class:`RuntimeKernel` + the serialized
:class:`TestRuntime` controller) must be invisible to testing mode.  The
seeded examplesys scenarios are explored under every built-in strategy and
each execution's full trace JSON (schedules, controlled choices, per-step
states, materialized logs of buggy executions) is compared byte-for-byte — via
SHA-256 digests recorded from the *pre-split* monolithic runtime — together
with the bug verdicts.  (``examplesys/both-bugs``, the liveness-monitor path,
was recorded at PR 18, the last commit with two declaration forms.)  A second
sweep cross-checks the post-split runtime against
:class:`~repro.core._baseline.BaselineRuntime` (the seed reference, which
predates per-step state recording, hence the steps/log comparison).
"""

import hashlib
import json
import os

import pytest

from repro.core import TestRuntime
from repro.core._baseline import BaselineRuntime
from repro.core.registry import get_scenario
from repro.core.strategy import create_strategy

ALL_STRATEGIES = ["random", "pct", "round-robin", "dfs"]
SCENARIOS = ["examplesys/safety-bug", "examplesys/fixed", "examplesys/both-bugs"]

#: SHA-256 digests of every trace JSON the pre-split runtime produced for
#: the sweep below, generated at the refactor boundary (commit before the
#: runtime package split) with the identical seeds/configs.
_GOLDENS_PATH = os.path.join(os.path.dirname(__file__), "data", "runtime_split_goldens.json")


def _explore(runtime_cls, scenario_name, strategy_name, iterations=5):
    testcase = get_scenario(scenario_name)
    config = testcase.default_config(
        strategy=strategy_name, seed=29, iterations=iterations,
        max_steps=300, stop_at_first_bug=False, max_bugs=3,
    )
    strategy = create_strategy(config)
    traces, bugs, logs = [], [], []
    for iteration in range(iterations):
        strategy.prepare_iteration(iteration)
        if strategy.exhausted:
            break
        runtime = runtime_cls(strategy, config)
        bug = runtime.run(testcase.build())
        traces.append(runtime.trace)
        bugs.append(None if bug is None else [bug.kind, bug.message, bug.step])
        logs.append(runtime.execution_log)
    return traces, bugs, logs


@pytest.mark.parametrize("strategy_name", ALL_STRATEGIES)
@pytest.mark.parametrize("scenario_name", SCENARIOS)
def test_trace_json_byte_identical_to_pre_split_runtime(scenario_name, strategy_name):
    with open(_GOLDENS_PATH) as handle:
        goldens = json.load(handle)[f"{scenario_name}|{strategy_name}"]
    traces, bugs, _ = _explore(TestRuntime, scenario_name, strategy_name)
    digests = [
        hashlib.sha256(trace.to_json().encode()).hexdigest() for trace in traces
    ]
    assert digests == goldens["trace_sha256"], (
        "post-split trace JSON diverged from the pre-split runtime's output"
    )
    assert bugs == goldens["bugs"]


@pytest.mark.parametrize("strategy_name", ALL_STRATEGIES)
@pytest.mark.parametrize("scenario_name", SCENARIOS)
def test_split_runtime_matches_seed_reference(scenario_name, strategy_name):
    new_traces, new_bugs, new_logs = _explore(TestRuntime, scenario_name, strategy_name)
    seed_traces, seed_bugs, seed_logs = _explore(BaselineRuntime, scenario_name, strategy_name)
    assert [list(t.steps) for t in new_traces] == [list(t.steps) for t in seed_traces]
    assert new_bugs == seed_bugs
    assert new_logs == seed_logs
