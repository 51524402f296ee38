"""High-level analysis entry points (used by the CLI and by tests).

``analyze_scenarios`` discovers machine/monitor classes through the scenario
registry — walking each registered ``build`` factory's code for the classes
it wires into the runtime, then closing over everything those machines
create, reference or notify — and runs every checker over the combined
program model.  The same discovery feeds the whole-program communication
graph (``graph_for_scenarios``) and the independence table the ``dpor-lite``
strategy consumes (``independence_for_scenarios``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Set

from repro.core.registry import TestCase

from .cache import AnalysisCache
from .extract import build_program, discover_classes, discover_event_types

if TYPE_CHECKING:  # at run time each entry point imports what it needs
    from .commgraph import CommGraph
    from .report import AnalysisReport


def analyze_classes(
    classes: Iterable[type],
    scenarios: Iterable[str] = (),
    roots: Optional[Iterable[type]] = None,
    produced_events: Iterable[type] = (),
    whole_program: bool = False,
) -> AnalysisReport:
    """Analyze an explicit set of machine/monitor classes (plus closure).

    ``roots`` are the classes the harness instantiates directly; by default
    every listed class counts as a root (which silences the
    unreachable-machine rule for them).  ``produced_events`` are event types
    produced outside any machine (a scenario's entry function).
    ``whole_program`` enables the rules that need a closed system (dead-event,
    unreachable-machine, monitor-never-notified); leave it off when the class
    list is a fragment of a larger program.
    """
    from .checkers import check_unused_ignores, run_checkers
    from .report import AnalysisReport

    program = build_program(classes)
    diagnostics = run_checkers(
        program,
        roots=roots,
        produced_events=produced_events,
        whole_program=whole_program,
    )
    diagnostics = diagnostics + check_unused_ignores(program, diagnostics)
    return AnalysisReport.build(
        diagnostics,
        machines=[model.name for model in program],
        scenarios=scenarios,
    )


def _discover(testcases: Sequence[TestCase]):
    classes: Set[type] = set()
    produced: Set[type] = set()
    for testcase in testcases:
        classes.update(discover_classes(testcase.build))
        produced.update(discover_event_types(testcase.build))
    return classes, produced


def analyze_scenarios(
    testcases: Sequence[TestCase], cache: Optional[AnalysisCache] = None
) -> AnalysisReport:
    """Analyze every machine reachable from the given registered scenarios.

    With a ``cache``, the finished report is stored keyed on the discovered
    classes' source digests plus the scenario names and harness-produced
    event types; an unchanged tree skips extraction and checking entirely.
    """
    from .independence import type_key
    from .report import AnalysisReport

    classes, produced = _discover(testcases)
    key = None
    if cache is not None:
        extra = ["report"]
        extra.extend(sorted(t.name for t in testcases))
        extra.extend(sorted(type_key(event) for event in produced))
        key = cache.key_for(classes, extra=extra)
        cached = cache.get(key)
        if cached is not None:
            return AnalysisReport.from_cache_dict(cached)
    report = analyze_classes(
        classes,
        scenarios=[t.name for t in testcases],
        roots=classes,
        produced_events=produced,
        whole_program=True,
    )
    if cache is not None:
        cache.put(key, report.to_cache_dict())
    return report


def graph_for_scenarios(testcases: Sequence[TestCase]) -> CommGraph:
    """Whole-program communication graph over the given scenarios."""
    from .commgraph import build_comm_graph

    classes, _produced = _discover(testcases)
    return build_comm_graph(build_program(classes))


def independence_for_scenarios(
    testcases: Sequence[TestCase], cache: Optional[AnalysisCache] = None
) -> dict:
    """Independence table over the given scenarios (see ``run --prune``)."""
    from .independence import build_independence_table

    classes, _produced = _discover(testcases)
    key = None
    if cache is not None:
        key = cache.key_for(classes, extra=["independence"])
        cached = cache.get(key)
        if cached is not None:
            return cached
    table = build_independence_table(build_program(classes))
    if cache is not None:
        cache.put(key, table)
    return table
