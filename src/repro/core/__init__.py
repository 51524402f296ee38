"""Core systematic-testing framework (the P# analog).

The public surface of the framework:

* :class:`Machine`, :class:`State`, :func:`on_event`, :class:`Receive` — the
  programming model for harness machines and wrapped components: nested
  ``State`` declarations with defer/ignore disciplines and a push/pop state
  stack.
* :class:`Monitor` — safety and liveness (hot/cold) specification monitors.
* :class:`TestingEngine`, :func:`run_test`, :class:`TestingConfig` — the
  single-strategy systematic testing entry points.
* :func:`scenario` / :class:`TestCase` — the declarative scenario registry
  every case-study harness registers into.
* :class:`HuntReport` / :class:`WorkUnit` — the one result model of every
  multi-execution run (:mod:`repro.core.hunt`, which also holds the one
  worker pool).
* :class:`Portfolio` / :func:`run_scenario` — multi-strategy, multi-process
  portfolio runs over registered scenarios.
* :class:`ParallelExplorer` / :func:`explore_scenario` — prefix-partitioned
  parallel exhaustive search with work stealing and cross-process
  fingerprint sharing.
* Scheduling strategies: random, priority-based (PCT), round-robin, DFS,
  replay — an open set extended with :func:`register_strategy`.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .config import TestingConfig
    from .coverage import CoverageTracker
    from .declarations import DEFER, IGNORE, State, on_event
    from .engine import TestingEngine, TestReport, run_test
    from .hunt import HuntReport, UnitResult, WorkUnit
    from .parallel import ParallelExplorer, explore_scenario
    from .portfolio import Portfolio, replay_bug, replay_trace, run_scenario
    from .registry import (
        TestCase,
        all_scenarios,
        get_scenario,
        load_builtin_scenarios,
        register,
        scenario,
    )
    from .errors import (
        BugError,
        DeadlockError,
        FrameworkError,
        LivenessViolationError,
        ReplayDivergenceError,
        SafetyViolationError,
        UnexpectedExceptionError,
        UnhandledEventError,
    )
    from .events import Event, Halt, Receive, StartEvent, TimerTick
    from .ids import MachineId
    from .machine import Machine
    from .monitors import Monitor
    from .runtime import BugInfo, ProductionRuntime, RuntimeKernel, TestRuntime
    from .shrink import Shrinker, ShrinkResult, ShrinkStats, shrink_bug
    from .statistics import HarnessDescription, HarnessStatistics, aggregate_statistics
    from .strategy import (
        DFSStrategy,
        PCTStrategy,
        RandomStrategy,
        ReplayStrategy,
        RoundRobinStrategy,
        SchedulingStrategy,
        available_strategies,
        create_strategy,
        register_strategy,
    )
    from .timer import StartTimer, StopTimer, TimerMachine
    from .trace import ScheduleTrace, TraceStep

__all__ = [
    "BugError",
    "BugInfo",
    "CoverageTracker",
    "DEFER",
    "DFSStrategy",
    "DeadlockError",
    "Event",
    "FrameworkError",
    "Halt",
    "HarnessDescription",
    "HarnessStatistics",
    "HuntReport",
    "IGNORE",
    "LivenessViolationError",
    "Machine",
    "MachineId",
    "Monitor",
    "PCTStrategy",
    "ParallelExplorer",
    "Portfolio",
    "ProductionRuntime",
    "RandomStrategy",
    "Receive",
    "ReplayDivergenceError",
    "ReplayStrategy",
    "RoundRobinStrategy",
    "RuntimeKernel",
    "SafetyViolationError",
    "ScheduleTrace",
    "SchedulingStrategy",
    "ShrinkResult",
    "ShrinkStats",
    "Shrinker",
    "StartEvent",
    "State",
    "StartTimer",
    "StopTimer",
    "TestCase",
    "TestReport",
    "TestRuntime",
    "TestingConfig",
    "TestingEngine",
    "TimerMachine",
    "TimerTick",
    "TraceStep",
    "UnexpectedExceptionError",
    "UnhandledEventError",
    "UnitResult",
    "WorkUnit",
    "aggregate_statistics",
    "all_scenarios",
    "available_strategies",
    "create_strategy",
    "explore_scenario",
    "get_scenario",
    "load_builtin_scenarios",
    "on_event",
    "register",
    "register_strategy",
    "replay_bug",
    "replay_trace",
    "run_scenario",
    "run_test",
    "scenario",
    "shrink_bug",
]

_SUBMODULES = {
    ".config": "TestingConfig",
    ".coverage": "CoverageTracker",
    ".declarations": "DEFER IGNORE State on_event",
    ".engine": "TestingEngine TestReport run_test",
    ".hunt": "HuntReport UnitResult WorkUnit",
    ".parallel": "ParallelExplorer explore_scenario",
    ".portfolio": "Portfolio replay_bug replay_trace run_scenario",
    ".registry": "TestCase all_scenarios get_scenario load_builtin_scenarios register scenario",
    ".errors": (
        "BugError DeadlockError FrameworkError LivenessViolationError ReplayDivergenceError "
        "SafetyViolationError UnexpectedExceptionError UnhandledEventError"
    ),
    ".events": "Event Halt Receive StartEvent TimerTick",
    ".ids": "MachineId",
    ".machine": "Machine",
    ".monitors": "Monitor",
    ".runtime": "BugInfo ProductionRuntime RuntimeKernel TestRuntime",
    ".shrink": "Shrinker ShrinkResult ShrinkStats shrink_bug",
    ".statistics": "HarnessDescription HarnessStatistics aggregate_statistics",
    ".strategy": (
        "DFSStrategy PCTStrategy RandomStrategy ReplayStrategy RoundRobinStrategy "
        "SchedulingStrategy available_strategies create_strategy register_strategy"
    ),
    ".timer": "StartTimer StopTimer TimerMachine",
    ".trace": "ScheduleTrace TraceStep",
}
_EXPORTS, __getattr__, __dir__ = lazy_exports(__name__, _SUBMODULES)
