"""Unified command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``list-scenarios`` — enumerate every registered scenario (name, tags,
  expected bug), optionally filtered by ``--tag``.
* ``list-strategies`` — enumerate every registered scheduling strategy.
* ``analyze`` — statically analyze the machines reachable from registered
  scenarios (no schedule is executed) and report rule violations; see
  :mod:`repro.analysis` for the rule catalog and suppression syntax.
  ``--list-rules`` prints the catalog; ``--graph`` emits the whole-program
  communication graph (byte-stable JSON, or Graphviz with ``--dot``) instead
  of running rules.
* ``run`` — fan a scenario out across a strategy portfolio on a worker pool
  and write the merged report (traces included) to a JSON file; ``--shrink``
  minimizes the winning bug trace before the report is written; ``--prune``
  builds the scenario's static independence table and defaults the portfolio
  to the dependence-aware ``dpor-lite`` strategy; ``--stop-on-bug`` cancels
  the remaining jobs once one finds a bug; ``--parallel N`` switches from
  the portfolio to the prefix-partitioned parallel *exhaustive* search
  (:mod:`repro.core.parallel`): one DFS-family strategy, N worker processes
  splitting the choice tree with work stealing and shared fingerprints.
* ``replay`` — load a report file and deterministically re-execute its
  recorded bug trace against the scenario it names (``--shrunk`` replays the
  minimized trace instead).
* ``shrink`` — load a report file, delta-debug its bug trace down to a
  minimal counterexample, and write the report back with ``shrunk_trace``
  and shrink statistics attached.
* ``serve`` — boot a registered scenario on the concurrent
  :class:`~repro.core.ProductionRuntime` and drive it with a configurable
  concurrent client load, reporting throughput and the monitors' verdict.

``run``, ``replay`` and ``serve`` accept ``--verbose`` to stream the
runtime's formatted log records live instead of only surfacing the log at
bug-record time.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
import time
from typing import List, Optional

from .core.config import TestingConfig
from .core.engine import TestingEngine
from .core.registry import all_scenarios, get_scenario, import_scenario_modules
from .core.strategy import available_strategies

# Shared with the pool workers, which re-run the same imports inside
# spawn-started processes (see repro.core.registry.import_scenario_modules).
_import_extra_modules = import_scenario_modules


def _cmd_list_scenarios(args: argparse.Namespace) -> int:
    _import_extra_modules(args.imports)
    cases = all_scenarios(tag=args.tag)
    if args.json:
        print(json.dumps([case.to_dict() for case in cases], indent=2))
        return 0
    if not cases:
        print("no scenarios registered" + (f" with tag {args.tag!r}" if args.tag else ""))
        return 1
    width = max(len(case.name) for case in cases)
    for case in cases:
        bug = case.expected_bug or "-"
        tags = ",".join(case.tags)
        print(f"{case.name:{width}s}  bug={bug:40s} tags={tags}")
    print(f"({len(cases)} scenarios)")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import RULES, AnalysisCache, analyze_scenarios, graph_for_scenarios

    if args.list_rules:
        if args.json:
            catalog = {
                rule: {"severity": severity, "summary": summary}
                for rule, (severity, summary) in sorted(RULES.items())
            }
            print(json.dumps(catalog, indent=2))
        else:
            width = max(len(rule) for rule in RULES)
            for rule, (severity, summary) in sorted(RULES.items()):
                print(f"{rule:{width}s}  {severity:7s}  {summary}")
            print(f"({len(RULES)} rules)")
        return 0
    if args.dot and not args.graph:
        print("error: --dot requires --graph", file=sys.stderr)
        return 2
    _import_extra_modules(args.imports)
    if args.scenario:
        cases = [get_scenario(name) for name in args.scenario]
    else:
        cases = all_scenarios()
        if not cases:
            print("no scenarios registered", file=sys.stderr)
            return 2
    if args.graph:
        graph = graph_for_scenarios(cases)
        print(graph.to_dot() if args.dot else graph.to_json())
        return 0
    cache = AnalysisCache(enabled=not args.no_cache)
    report = analyze_scenarios(cases, cache=cache)
    if args.json:
        print(report.to_json(sorted(RULES) if args.stats else None))
    else:
        print(report.render())
        if args.stats:
            print()
            print(report.render_stats(sorted(RULES)))
            print(cache.describe())
    return 1 if report.gate_failures(args.fail_on) else 0


def _cmd_list_strategies(args: argparse.Namespace) -> int:
    names = available_strategies()
    if args.json:
        print(json.dumps(names, indent=2))
    else:
        for name in names:
            print(name)
        print(f"({len(names)} strategies)")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.json and args.verbose:
        # the execution log would corrupt the machine-readable document
        print("error: --json and --verbose are mutually exclusive", file=sys.stderr)
        return 2
    _import_extra_modules(args.imports)
    testcase = get_scenario(args.scenario)
    overrides = {"seed": args.seed}
    if args.max_steps is not None:
        overrides["max_steps"] = args.max_steps
    if args.verbose:
        overrides["verbose"] = True
    if args.fingerprints:
        overrides["fingerprints"] = True
    if args.stateful:
        overrides["stateful"] = True
    if args.prune:
        from .analysis import AnalysisCache, independence_for_scenarios

        cache = AnalysisCache(enabled=not args.no_cache)
        overrides["independence"] = independence_for_scenarios([testcase], cache=cache)
    # Built through the constructor so __post_init__ validates the values.
    config = testcase.default_config(**overrides)
    if args.prune:
        default_strategies = ["dpor-lite"]
    elif args.stateful or args.parallel is not None:
        default_strategies = ["dfs"]
    else:
        default_strategies = ["random", "pct"]
    strategies = args.strategy or default_strategies
    shared = dict(
        imports=tuple(args.imports or ()),
        start_method=args.start_method,
        stop_on_first_bug=args.stop_on_bug,
    )
    if args.parallel is not None:
        # ``run --parallel N``: one exhaustive strategy, N processes.
        if len(strategies) != 1:
            print("error: --parallel explores the choice tree with a single "
                  "exhaustive strategy; pass at most one --strategy", file=sys.stderr)
            return 2
        # The portfolio splits --iterations across seed shards; the parallel
        # search has no shards — the same flag is the total execution budget.
        from .core.parallel import ParallelExplorer

        hunt = ParallelExplorer(
            testcase,
            strategy=strategies[0],
            num_workers=args.parallel,
            config=dataclasses.replace(config, iterations=args.iterations),
            claim_iterations=args.claim_iterations,
            **shared,
        )
    else:
        from .core.portfolio import Portfolio

        hunt = Portfolio(
            testcase,
            strategies=strategies,
            iterations=args.iterations,
            num_workers=args.workers,
            num_shards=args.shards,
            seed=args.seed,
            config=config,
            **shared,
        )
    report = hunt.run()
    if args.shrink:
        report.shrink_winning_bug()
    if args.json:
        merged = report.merged_coverage
        document = {
            "scenario": report.scenario,
            "summary": report.summary(),
            "bug_found": report.bug_found,
            "total_iterations": report.total_iterations,
            "coverage": merged.summary(),
            "fingerprints": sorted(format(fp, "016x") for fp in merged.fingerprints),
        }
        if report.has_claims:
            document.update(
                claims=len(report.results),
                state_space_exhausted=report.state_space_exhausted,
                stopped_early=report.stopped_early,
                workers=report.worker_stats(),
            )
        print(json.dumps(document, indent=2))
    else:
        print(report.summary())
    if args.output:
        report.save(args.output)
        if not args.json:
            print(f"report written to {args.output}")
    if args.expect_bug and not report.bug_found:
        print("error: a bug was expected but none was found", file=sys.stderr)
        return 1
    return 0


def _load_bug(args: argparse.Namespace, verb: str):
    """Load ``args.report`` and pick the ``--bug``-selected bug among those
    that carry a trace.  Returns ``(report, bug, config)`` — the config of
    the unit that found it — or prints an error and returns None."""
    from .core.hunt import HuntReport

    _import_extra_modules(args.imports)
    report = HuntReport.load(args.report)
    bugs = [
        (result.unit, bug)
        for result in report.results
        for bug in result.report.bugs
        if bug.trace is not None
    ]
    if not bugs:
        print(f"error: {args.report} contains no replayable bug trace", file=sys.stderr)
        return None
    if not (0 <= args.bug < len(bugs)):
        print(f"error: --bug must be in [0, {len(bugs)})", file=sys.stderr)
        return None
    unit, bug = bugs[args.bug]
    print(f"{verb} #{args.bug} of {report.scenario!r} "
          f"(job #{unit.index}, {unit.strategy}, seed {unit.seed})")
    print(f"recorded: {bug}")
    return report, bug, unit.config(report.config)


def _print_state_context(trace, limit: int = 8) -> None:
    """Show the machine/state pairs of the trace's final dispatch steps.

    Uses the per-step state names the runtime records alongside schedule
    steps; traces written before states were recorded print nothing.
    """
    context = list(trace.schedule_context())
    if not context:
        return
    print(f"state context (last {min(limit, len(context))} of {len(context)} dispatches):")
    for position, (step, state) in enumerate(context[-limit:], start=len(context) - min(limit, len(context))):
        print(f"  dispatch {position}: {step.label} in state {state!r}")


def _cmd_replay(args: argparse.Namespace) -> int:
    from .core.portfolio import replay_trace

    loaded = _load_bug(args, "replaying shrunk trace of bug" if args.shrunk else "replaying bug")
    if loaded is None:
        return 1
    report, bug, config = loaded
    if args.verbose:
        config = dataclasses.replace(config, verbose=True)
    if args.shrunk:
        if bug.shrunk_trace is None:
            print(f"error: bug #{args.bug} has no shrunk trace; run "
                  f"`python -m repro shrink {args.report}` first", file=sys.stderr)
            return 1
        trace = bug.shrunk_trace
    else:
        trace = bug.trace
    _print_state_context(trace)
    replayed = replay_trace(report.scenario, trace, config)
    if replayed is None:
        print("error: replay completed without reproducing the bug", file=sys.stderr)
        return 1
    print(f"replayed: {replayed}")
    if args.shrunk:
        # The shrunk execution is shorter than the recorded one, so messages
        # (step counts, per-machine tallies) legitimately differ; the bug
        # *class* must match.
        if replayed.kind != bug.kind:
            print("error: shrunk-trace replay found a different bug class", file=sys.stderr)
            return 1
        print("shrunk trace reproduced the recorded bug class deterministically")
        return 0
    if replayed.kind != bug.kind or replayed.message != bug.message:
        print("error: replay diverged from the recorded bug", file=sys.stderr)
        return 1
    print("replay reproduced the recorded bug deterministically")
    return 0


def _cmd_shrink(args: argparse.Namespace) -> int:
    loaded = _load_bug(args, "shrinking bug")
    if loaded is None:
        return 1
    report, bug, config = loaded
    if args.max_replays is not None:
        config = dataclasses.replace(config, shrink_max_replays=args.max_replays)
    engine = TestingEngine(get_scenario(report.scenario).build(), config)
    shrink_result = engine.shrink_bug(bug)
    stats = shrink_result.stats
    print(stats.summary())
    print(f"minimal: {shrink_result.bug}")
    # Sanity: the minimized trace must replay in *strict* mode to the same
    # bug class (it was recorded from an actual execution, so it does unless
    # the program under test is nondeterministic outside runtime control).
    replayed = engine.replay(shrink_result.trace)
    if replayed is None or replayed.kind != bug.kind:
        print("error: shrunk trace does not replay to the same bug class", file=sys.stderr)
        return 1
    output = args.output or args.report
    report.save(output)
    print(f"report with shrunk trace written to {output}")
    if args.expect_reduction is not None and stats.reduction < args.expect_reduction:
        print(f"error: expected a >= {args.expect_reduction:g}x reduction, "
              f"got {stats.reduction:.1f}x", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .core.runtime import ProductionRuntime

    if args.json and args.verbose:
        # Verbose mirroring writes "[repro] ..." lines to stdout during the
        # run, which would corrupt the machine-readable JSON document.
        print("error: --json and --verbose are mutually exclusive", file=sys.stderr)
        return 2
    _import_extra_modules(args.imports)
    testcase = get_scenario(args.scenario)
    # Scenario factories opt into load parameters by declaring them as
    # keyword defaults (see examplesys/service); flags for parameters the
    # factory does not accept are an error rather than silently ignored.
    factory_params = inspect.signature(testcase.build).parameters
    build_kwargs = {}
    for flag, param in (("clients", "num_clients"), ("requests", "num_requests")):
        value = getattr(args, flag)
        if value is None:
            continue
        if param not in factory_params:
            print(
                f"error: scenario {args.scenario!r} does not accept --{flag} "
                f"(its factory has no {param!r} parameter)",
                file=sys.stderr,
            )
            return 2
        build_kwargs[param] = value
    entry = testcase.build(**build_kwargs)
    config = TestingConfig(verbose=args.verbose)
    runtime = ProductionRuntime(config, tick_interval=args.tick_interval)
    started = time.perf_counter()
    bug = runtime.run(entry, timeout=args.timeout)
    elapsed = time.perf_counter() - started
    quiesced = runtime.termination_reason == "quiescence"
    dispatched = runtime.step_count
    active_machines = runtime.active_machine_count()
    loop_turns = runtime.loop_turns
    stats = {
        "scenario": args.scenario,
        "machines": len(runtime.dispatch_counts),
        "active_machines": active_machines,
        "events_dispatched": dispatched,
        "elapsed_seconds": elapsed,
        "events_per_second": dispatched / elapsed if elapsed > 0 else 0.0,
        # how many events each turn of the event loop dispatched: ~1 means
        # the run paid asyncio's per-turn cost for every single event.
        "loop_turns": loop_turns,
        "events_per_turn": dispatched / loop_turns if loop_turns else 0.0,
        # most machines runnable at once, sampled at the top of each turn.
        "max_run_queue": runtime.max_run_queue,
        "quiesced": quiesced,
        "bug": bug.to_dict() if bug is not None else None,
    }
    if args.json:
        print(json.dumps(stats, indent=2))
    else:
        print(
            f"served {args.scenario!r} under ProductionRuntime: "
            f"{dispatched} events across {active_machines} machines "
            f"in {elapsed:.2f}s ({stats['events_per_second']:.0f} events/s, "
            f"{stats['events_per_turn']:.1f} events/turn over {loop_turns} loop turns, "
            f"run queue <= {runtime.max_run_queue})"
        )
        print("clean shutdown, no monitor violations" if bug is None and quiesced
              else ("timed out before quiescence" if bug is None else f"VIOLATION: {bug}"))
    if bug is not None:
        if not args.json:
            print(f"error: {bug}", file=sys.stderr)
        return 1
    if not quiesced:
        print(f"error: system did not quiesce within {args.timeout:.0f}s", file=sys.stderr)
        return 1
    if args.expect_events is not None and dispatched < args.expect_events:
        print(
            f"error: expected >= {args.expect_events} dispatched events, got {dispatched}",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Systematic testing of distributed-system models "
        "(Deligiannis et al., FAST'16 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_import_option(subparser):
        subparser.add_argument(
            "--import",
            dest="imports",
            action="append",
            metavar="MODULE_OR_FILE",
            help="extra module (dotted name or .py path) whose @scenario / "
            "@register_strategy registrations should be loaded first "
            "(repeatable)",
        )

    list_scenarios = sub.add_parser("list-scenarios", help="enumerate registered scenarios")
    list_scenarios.add_argument("--tag", help="only scenarios carrying this tag")
    list_scenarios.add_argument("--json", action="store_true", help="machine-readable output")
    add_import_option(list_scenarios)
    list_scenarios.set_defaults(func=_cmd_list_scenarios)

    list_strategies = sub.add_parser("list-strategies", help="enumerate registered strategies")
    list_strategies.add_argument("--json", action="store_true", help="machine-readable output")
    list_strategies.set_defaults(func=_cmd_list_strategies)

    analyze = sub.add_parser(
        "analyze",
        help="statically analyze machine programs (no schedule is executed)",
        description="Extract per-machine summary graphs for every machine "
        "reachable from the selected scenarios, build the whole-program "
        "communication graph, and run the rule catalog over them "
        "(see --list-rules for the full catalog).",
        epilog="exit status: 0 = no gate failure (clean, or everything below "
        "--fail-on / suppressed); 1 = unsuppressed diagnostics at or above "
        "the --fail-on severity remain; 2 = usage or scenario-discovery "
        "error.",
    )
    analyze.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="analyze only the machines of this registered scenario "
        "(repeatable; default: all registered scenarios)",
    )
    analyze.add_argument(
        "--fail-on",
        choices=["error", "warning"],
        default="error",
        help="exit non-zero when diagnostics at or above this severity "
        "remain unsuppressed (default: error)",
    )
    analyze.add_argument("--json", action="store_true", help="machine-readable report")
    analyze.add_argument(
        "--graph",
        action="store_true",
        help="emit the whole-program communication graph (byte-stable JSON) "
        "instead of running rules",
    )
    analyze.add_argument(
        "--dot",
        action="store_true",
        help="with --graph: emit Graphviz DOT instead of JSON",
    )
    analyze.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (id, severity, summary) and exit; "
        "honors --json",
    )
    analyze.add_argument(
        "--stats",
        action="store_true",
        help="append per-rule active/suppressed counts (and with --json a "
        "'stats' block; without it the --json payload is unchanged)",
    )
    analyze.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk incremental analysis cache (.repro-cache, "
        "override the location with $REPRO_ANALYSIS_CACHE)",
    )
    add_import_option(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    run = sub.add_parser("run", help="run a strategy portfolio over one scenario")
    run.add_argument("--scenario", required=True, help="registered scenario name")
    run.add_argument(
        "--strategy",
        action="append",
        help="strategy to include (repeatable; default: random and pct)",
    )
    run.add_argument("--iterations", type=int, default=100,
                     help="total execution budget per strategy (default 100)")
    run.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    run.add_argument("--shards", type=int, default=None,
                     help="seed shards per strategy (default: same as --workers)")
    run.add_argument("--parallel", type=int, default=None, metavar="N",
                     help="prefix-partitioned parallel exhaustive search on N "
                     "worker processes instead of a portfolio: one DFS-family "
                     "strategy (default dfs, or dpor-lite with --prune) splits "
                     "the choice tree into subtree claims with work stealing "
                     "and cross-process fingerprint sharing; --iterations is "
                     "the total execution budget")
    run.add_argument("--claim-iterations", type=int, default=50, metavar="K",
                     help="with --parallel: schedules a worker explores "
                     "between reports - every K it streams what it found and "
                     "splits its subtree if another worker needs work "
                     "(default 50)")
    run.add_argument("--stop-on-bug", action="store_true",
                     help="cancel remaining work as soon as a completed "
                     "job/claim reports a bug (portfolio and --parallel)")
    run.add_argument("--seed", type=int, default=0, help="base random seed (default 0)")
    run.add_argument("--max-steps", type=int, default=None,
                     help="override the scenario's per-execution step bound")
    run.add_argument("--start-method", default=None,
                     choices=["fork", "spawn", "forkserver"],
                     help="multiprocessing start method for the worker pool "
                     "(default: platform default)")
    run.add_argument("--output", default="repro-report.json",
                     help="JSON report path (default repro-report.json)")
    run.add_argument("--expect-bug", action="store_true",
                     help="exit non-zero if no bug is found")
    run.add_argument("--shrink", action="store_true",
                     help="minimize the winning bug trace before writing the report")
    run.add_argument("--prune", action="store_true",
                     help="build the scenario's static independence table and "
                     "prune provably-commuting schedules (defaults the "
                     "portfolio to the dpor-lite strategy)")
    run.add_argument("--no-cache", action="store_true",
                     help="with --prune: rebuild the independence table even "
                     "when the on-disk analysis cache has a current entry")
    run.add_argument("--fingerprints", action="store_true",
                     help="maintain the global-state execution fingerprint and "
                     "record distinct states into coverage")
    run.add_argument("--stateful", action="store_true",
                     help="prune schedules revisiting fully-explored global "
                     "states (dfs/dpor-lite; implies fingerprinting; defaults "
                     "the portfolio to the dfs strategy)")
    run.add_argument("--json", action="store_true",
                     help="print a machine-readable result document (summary, "
                     "merged coverage, distinct state fingerprints)")
    run.add_argument("--verbose", action="store_true",
                     help="stream formatted execution-log records live "
                     "(instead of only at bug-record time)")
    add_import_option(run)
    run.set_defaults(func=_cmd_run)

    replay = sub.add_parser("replay", help="replay a bug trace from a report file")
    replay.add_argument("report", help="JSON report written by `run`")
    replay.add_argument("--bug", type=int, default=0,
                        help="index of the bug to replay among the report's bugs (default 0)")
    replay.add_argument("--shrunk", action="store_true",
                        help="replay the minimized trace instead of the recorded one")
    replay.add_argument("--verbose", action="store_true",
                        help="stream the replayed execution's log records live")
    add_import_option(replay)
    replay.set_defaults(func=_cmd_replay)

    serve = sub.add_parser(
        "serve",
        help="boot a scenario on the concurrent ProductionRuntime and drive "
        "it with client load",
    )
    serve.add_argument("--scenario", required=True, help="registered scenario name")
    serve.add_argument("--clients", type=int, default=None,
                       help="concurrent load clients (scenario factories opt in "
                       "via a num_clients parameter)")
    serve.add_argument("--requests", type=int, default=None,
                       help="requests per client (factories opt in via num_requests)")
    serve.add_argument("--timeout", type=float, default=120.0,
                       help="seconds to wait for quiescence (default 120)")
    serve.add_argument("--tick-interval", type=float, default=0.005,
                       help="wall-clock timer period in seconds (default 0.005)")
    serve.add_argument("--expect-events", type=int, default=None,
                       help="exit non-zero unless at least this many events were dispatched")
    serve.add_argument("--json", action="store_true", help="machine-readable stats")
    serve.add_argument("--verbose", action="store_true",
                       help="stream formatted execution-log records live")
    add_import_option(serve)
    serve.set_defaults(func=_cmd_serve)

    shrink = sub.add_parser(
        "shrink", help="minimize a bug trace in a report file (delta debugging)"
    )
    shrink.add_argument("report", help="JSON report written by `run`")
    shrink.add_argument("--bug", type=int, default=0,
                        help="index of the bug to shrink among the report's bugs (default 0)")
    shrink.add_argument("--output", default=None,
                        help="where to write the updated report (default: in place)")
    shrink.add_argument("--max-replays", type=int, default=None,
                        help="candidate-replay budget (default: config's shrink_max_replays)")
    shrink.add_argument("--expect-reduction", type=float, default=None, metavar="X",
                        help="exit non-zero unless the trace shrank by at least X times")
    add_import_option(shrink)
    shrink.set_defaults(func=_cmd_shrink)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
