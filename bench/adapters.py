"""The one benchmark file that imports the program under test.

Every call the benchmark makes into ``repro`` goes through a function here,
by public name (``repro.core``, ``repro.analysis``), and comes back as plain
numbers, strings and opaque handles — so an API consolidation in ``src/``
(one report model, one pool) is absorbed by editing this file alone.

Do not reach for ``TestingEngine(runtime_cls=...)`` or
``repro.core._baseline``: ROADMAP schedules both for deletion.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.analysis import (
    AnalysisCache,
    analyze_scenarios,
    discover_classes,
    independence_for_scenarios,
)
from repro.core import (
    Event,
    Machine,
    MachineId,
    ParallelExplorer,
    ProductionRuntime,
    TestingConfig,
    TestingEngine,
    TestReport,
    all_scenarios,
    create_strategy,
    get_scenario,
    load_builtin_scenarios,
    replay_trace,
    run_scenario,
)
from repro.core.fingerprint import stable_hash

from tracing import StrategyProxy, Tracer, wrap_entry

SERVICE_SCENARIO = "examplesys/service"
#: ``join`` budget of ``serve``; the run takes a few seconds, so reaching
#: this is a failed run, not a slow one
SERVE_TIMEOUT_S = 150.0


def start_method() -> str:
    """Start method ``ParallelExplorer`` gets when none is passed: the default."""
    return multiprocessing.get_start_method()


def load() -> int:
    load_builtin_scenarios()
    return len(all_scenarios())


# ---------------------------------------------------------------------------
# engine runs (hunts, exhaustive searches, random coverage)
# ---------------------------------------------------------------------------
def _run_engine(scenario: str, config: TestingConfig, tracer: Optional[Tracer]) -> TestReport:
    """One ``TestingEngine.run()``; traced runs go through the proxies."""
    if tracer is None:
        return run_scenario(scenario, config)
    entry = get_scenario(scenario).build()
    with tracer.span("engine.run"):
        proxy = StrategyProxy(create_strategy(config), tracer)
        report = TestingEngine(wrap_entry(entry, proxy), config, strategy=proxy).run()
        proxy.finish()
    return report


class Hunt(NamedTuple):
    """One Table 2 bug: where to look first and where to fall back."""

    scenario: str
    directed: Optional[str]
    max_steps: int


def table2_hunts() -> List[Hunt]:
    """The ``table2`` scenarios with their directed ("custom test case")
    fallbacks, in name order — the pairing ``experiments.bug_registry`` makes."""
    directed = {
        case.expected_bug: case.name
        for case in all_scenarios(tag="directed")
        if case.expected_bug is not None
    }
    return [
        Hunt(case.name, directed.get(case.expected_bug), case.max_steps)
        for case in all_scenarios(tag="table2")
    ]


def hunt(
    target: Hunt, strategy: str, iterations: int, seed: int, tracer: Optional[Tracer]
) -> Dict[str, Any]:
    """Hunt one bug with one scheduler, as ``experiments.table2._hunt`` does:
    default harness first, directed harness when that budget finds nothing."""
    config = TestingConfig(
        iterations=iterations, max_steps=target.max_steps, seed=seed, strategy=strategy
    )
    started = time.perf_counter()
    scenario = target.scenario
    report = _run_engine(scenario, config, tracer)
    inner = report.elapsed_seconds
    executions = report.iterations_executed
    if not report.bug_found and target.directed is not None:
        scenario = target.directed
        report = _run_engine(scenario, config, tracer)
        inner += report.elapsed_seconds
        executions += report.iterations_executed
    wall = time.perf_counter() - started
    bug = report.first_bug
    return {
        "scenario": scenario,
        "strategy": strategy,
        "found": bug is not None,
        "kind": bug.kind if bug is not None else None,
        "expected_kind": get_scenario(scenario).expected_bug_kind,
        "first_bug_s": report.time_to_first_bug if bug is not None else 0.0,
        "executions": executions,
        "overhead_s": wall - inner,
        "_bug": bug,
        "_config": config,
    }


def replay_reproduces(outcome: Dict[str, Any]) -> bool:
    """Strict replay of a hunt's recorded trace reaches the same bug."""
    bug = outcome["_bug"]
    replayed = replay_trace(outcome["scenario"], bug.trace, outcome["_config"])
    return (
        replayed is not None and replayed.kind == bug.kind and replayed.message == bug.message
    )


def build_independence_table(scenario: str) -> dict:
    """Cold v2 independence table for one scenario (no on-disk cache)."""
    return independence_for_scenarios([get_scenario(scenario)])


def search_config(
    strategy: str,
    max_steps: int,
    iterations: int,
    seed: int = 0,
    stateful: bool = False,
    fingerprints: bool = False,
    independence: Optional[dict] = None,
) -> TestingConfig:
    """Run-to-the-end configuration: every bug is recorded, none stops the run."""
    return TestingConfig(
        iterations=iterations,
        max_steps=max_steps,
        seed=seed,
        strategy=strategy,
        stop_at_first_bug=False,
        max_bugs=None,
        max_log_records=16,
        stateful=stateful,
        fingerprints=fingerprints,
        independence=independence,
    )


def _search_outcome(report: Any, schedules: int, exhausted: bool, coverage: Any) -> Dict[str, Any]:
    return {
        "schedules": schedules,
        "exhausted": exhausted,
        "bugs": len(report.bugs),
        "bug_kinds": sorted({bug.kind for bug in report.bugs}),
        "distinct_states": len(coverage.fingerprints),
        "digest": coverage.fingerprint_digest() if coverage.fingerprints else None,
        "_report": report,
    }


def search(scenario: str, config: TestingConfig, tracer: Optional[Tracer]) -> Dict[str, Any]:
    report = _run_engine(scenario, config, tracer)
    return _search_outcome(
        report, report.iterations_executed, report.state_space_exhausted, report.coverage
    )


def parallel_search(
    scenario: str, config: TestingConfig, workers: int, claim_iterations: int
) -> Dict[str, Any]:
    report = ParallelExplorer(
        scenario,
        strategy=config.strategy,
        num_workers=workers,
        config=config,
        claim_iterations=claim_iterations,
    ).run()
    outcome = _search_outcome(
        report, report.total_iterations, report.state_space_exhausted, report.merged_coverage
    )
    stats = report.worker_stats()
    executions = [entry["executions"] for entry in stats]
    outcome.update(
        workers=workers,
        claims=len(report.results),
        claims_covered=sum(entry["claims_covered"] for entry in stats),
        claims_split=sum(entry["claims_split"] for entry in stats),
        busy_s=sum(entry["busy_seconds"] for entry in stats),
        imbalance=max(executions) * len(executions) / sum(executions),
    )
    return outcome


def report_roundtrip(outcome: Dict[str, Any]) -> Dict[str, float]:
    """JSON round-trip of a finished report (what crosses the result queue)."""
    report = outcome["_report"]
    started = time.perf_counter()
    text = report.to_json(indent=None)
    encoded = time.perf_counter()
    type(report).from_json(text)
    decoded = time.perf_counter()
    return {
        "to_json_ms": (encoded - started) * 1e3,
        "from_json_ms": (decoded - encoded) * 1e3,
        "json_kb": len(text) / 1024,
    }


# ---------------------------------------------------------------------------
# production runtime
# ---------------------------------------------------------------------------
def serve(
    clients: int, requests: int, tick_interval: float, tracer: Optional[Tracer]
) -> Dict[str, Any]:
    """Boot the service on ``ProductionRuntime``, drive it to quiescence, stop.

    The traced form times ``start`` / ``join`` / ``shutdown`` apart; the
    untraced one is the plain ``run()`` a user calls.
    """
    entry = get_scenario(SERVICE_SCENARIO).build(num_clients=clients, num_requests=requests)
    runtime = ProductionRuntime(tick_interval=tick_interval)
    if tracer is None:
        bug = runtime.run(entry, timeout=SERVE_TIMEOUT_S)
    else:
        with tracer.span("production.start"):
            runtime.start(entry)
        with tracer.span("production.join"):
            runtime.join(SERVE_TIMEOUT_S)
        with tracer.span("production.shutdown"):
            bug = runtime.shutdown()
    acked = sum(
        len(machine.acked)
        for machine in runtime.machines_of_type(Machine)
        if type(machine).__name__ == "LoadClient"
    )
    return {
        "bug": str(bug) if bug is not None else None,
        "termination": runtime.termination_reason,
        "events": runtime.step_count,
        "acked": acked,
        "active_machines": runtime.active_machine_count(),
    }


# ---------------------------------------------------------------------------
# direct timed calls into single layers
# ---------------------------------------------------------------------------
def time_analysis(scenario: str, cache_dir: str) -> Tuple[dict, Dict[str, float]]:
    """``build_independence_table`` with every step of the analysis layer
    timed, from ``discover_classes`` to a warm on-disk cache.

    Call where an untraced run builds its table — in a process that has not
    analyzed anything yet — so the in-process model caches are equally cold.
    """
    testcase = get_scenario(scenario)
    marks = [time.perf_counter()]
    discover_classes(testcase.build)
    marks.append(time.perf_counter())
    table = independence_for_scenarios([testcase])
    marks.append(time.perf_counter())
    cache = AnalysisCache(cache_dir)
    independence_for_scenarios([testcase], cache=cache)  # miss: fills the cache
    marks.append(time.perf_counter())
    independence_for_scenarios([testcase], cache=cache)
    marks.append(time.perf_counter())
    everything = all_scenarios()
    analyze_scenarios(everything, cache=cache)
    marks.append(time.perf_counter())
    analyze_scenarios(everything, cache=cache)
    marks.append(time.perf_counter())
    gaps = [(later - earlier) * 1e3 for earlier, later in zip(marks, marks[1:])]
    return table, {
        "discover_ms": gaps[0],
        "table_build_ms": gaps[1],
        "cache_warm_ms": gaps[3],
        "analyze_cold_ms": gaps[4],
        "analyze_warm_ms": gaps[5],
        "table_pairs": sum(len(m["events"]) for m in table["machines"].values()),
    }


class _ExtentId:
    """Payload value object, shaped like vNext's ``ExtentId``."""

    def __init__(self, value: int) -> None:
        self.value = value


class _CopyRequest(Event):
    """Shaped like vNext's ``CopyRequestEvent``: ids and a machine handle."""

    def __init__(self, extent: _ExtentId, source: int, requester: MachineId) -> None:
        self.extent_id = extent
        self.source_node_id = source
        self.requester = requester


class _NodeMessage(Event):
    """Shaped like vNext's ``NodeMessageEvent``: an opaque wire message."""

    def __init__(self, destination: int, message: object) -> None:
        self.destination_node_id = destination
        self.message = message


def time_stable_hash(rounds: int) -> float:
    """Microseconds per ``stable_hash`` over a fixed corpus of what the vNext
    harness keeps in event payloads and machine attributes: events, machine
    ids, value objects, nested containers, primitives."""
    ids = [MachineId(value, "ExtentNodeMachine", f"EN-{value}") for value in range(4)]
    extents = [_ExtentId(value) for value in range(3)]
    corpus: List[Any] = [
        None, True, 0, 17, -3, 2**40, 1.5, "", "extent-7", b"\x00\x01",
        (1, 2, 3), (ids[0], 4, "sync"), tuple(ids), [1, [2, [3]]],
        {"a": 1, "b": (2, 3)}, {3, 1, 2}, frozenset({"x", "y"}),
        {node: [node.value, (node.value, "ok")] for node in ids},
    ]  # fmt: skip
    corpus += ids
    corpus += [_CopyRequest(extent, 1, ids[2]) for extent in extents]
    corpus += [_NodeMessage(node.value, {"extents": extents, "from": node}) for node in ids]
    started = time.perf_counter()
    for _ in range(rounds):
        for value in corpus:
            stable_hash(value)
    return (time.perf_counter() - started) * 1e6 / (rounds * len(corpus))
