"""Whole-program static analysis for machine programs.

The analyzer models each machine/monitor class without running a single
schedule (states, transitions, sends with resolved event/target types,
defer/ignore disciplines) and checks the model against a fixed rule catalog —
per-machine rules (``unhandled-event``, ``unreachable-state``,
``dead-handler``, ``pop-underflow``, ``stuck-deferral``, ``hot-forever``,
``payload-alias``, ``nondeterministic-handler``) plus whole-program graph
and dataflow rules (``dead-event``, ``unreachable-machine``,
``monitor-never-notified``, ``unbounded-send-cycle``,
``payload-missing-field``, ``payload-dead-field``) and pragma hygiene
(``unused-ignore``).

The same extraction layer feeds three machine-readable artifacts:

* the **communication graph** (:func:`build_comm_graph` /
  ``python -m repro analyze --graph [--dot|--json]``) — machine, monitor and
  event types with every create/send/raise/notify site as an anchored edge;
* the **payload dataflow** (:func:`build_dataflow`) — field-sensitive
  def-use facts joining what each producing site constructs with what each
  receiving handler reads;
* the **independence table** (:func:`build_independence_table`) — the static
  per-``(machine, event-type)`` read/write footprints the ``dpor-lite``
  strategy uses to prune the schedule search (``python -m repro run
  --prune``).

Repeated runs over an unchanged tree are served from an on-disk incremental
cache (:class:`AnalysisCache`, ``.repro-cache/``) keyed on per-module source
digests; ``--no-cache`` bypasses it.

Run the analyzer via ``python -m repro analyze`` or programmatically::

    from repro.analysis import analyze_scenarios
    from repro.core.registry import all_scenarios, load_builtin_scenarios

    load_builtin_scenarios()
    report = analyze_scenarios(all_scenarios())
    print(report.render())

Diagnostics are suppressed inline with ``# repro: ignore[rule-id]``.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .cache import CACHE_VERSION, AnalysisCache
    from .checkers import (
        RULES,
        check_unused_ignores,
        is_handleable,
        reachable_states,
        run_checkers,
    )
    from .commgraph import CommGraph, GraphEdge, GraphNode, build_comm_graph
    from .dataflow import (
        HandlerReads,
        NondetFinding,
        ProducerSite,
        ProgramDataflow,
        build_dataflow,
        clear_dataflow_cache,
        event_ctor_fields,
        event_has_own_methods,
    )
    from .extract import (
        build_program,
        clear_model_cache,
        discover_classes,
        discover_event_types,
        extract_machine_model,
    )
    from .independence import (
        TABLE_VERSION,
        build_independence_table,
        footprint_for,
        independence_for_classes,
        type_key,
    )
    from .model import MachineModel, ProgramModel, QuerySite, SourceRef
    from .report import ERROR, WARNING, AnalysisReport, Diagnostic
    from .runner import (
        analyze_classes,
        analyze_scenarios,
        graph_for_scenarios,
        independence_for_scenarios,
    )

__all__ = [
    "AnalysisCache",
    "AnalysisReport",
    "CACHE_VERSION",
    "CommGraph",
    "Diagnostic",
    "ERROR",
    "GraphEdge",
    "GraphNode",
    "HandlerReads",
    "MachineModel",
    "NondetFinding",
    "ProducerSite",
    "ProgramDataflow",
    "ProgramModel",
    "QuerySite",
    "RULES",
    "SourceRef",
    "TABLE_VERSION",
    "WARNING",
    "analyze_classes",
    "analyze_scenarios",
    "build_comm_graph",
    "build_dataflow",
    "build_independence_table",
    "build_program",
    "check_unused_ignores",
    "clear_dataflow_cache",
    "clear_model_cache",
    "discover_classes",
    "discover_event_types",
    "event_ctor_fields",
    "event_has_own_methods",
    "extract_machine_model",
    "footprint_for",
    "graph_for_scenarios",
    "independence_for_classes",
    "independence_for_scenarios",
    "is_handleable",
    "reachable_states",
    "run_checkers",
    "type_key",
]

_SUBMODULES = {
    ".cache": "CACHE_VERSION AnalysisCache",
    ".checkers": "RULES check_unused_ignores is_handleable reachable_states run_checkers",
    ".commgraph": "CommGraph GraphEdge GraphNode build_comm_graph",
    ".dataflow": (
        "HandlerReads NondetFinding ProducerSite ProgramDataflow build_dataflow "
        "clear_dataflow_cache event_ctor_fields event_has_own_methods"
    ),
    ".extract": (
        "build_program clear_model_cache discover_classes discover_event_types "
        "extract_machine_model"
    ),
    ".independence": (
        "TABLE_VERSION build_independence_table footprint_for independence_for_classes type_key"
    ),
    ".model": "MachineModel ProgramModel QuerySite SourceRef",
    ".report": "ERROR WARNING AnalysisReport Diagnostic",
    ".runner": "analyze_classes analyze_scenarios graph_for_scenarios independence_for_scenarios",
}
_EXPORTS, __getattr__, __dir__ = lazy_exports(__name__, _SUBMODULES)
