"""End-to-end tests of the ``python -m repro`` CLI."""

import json


from repro.cli import main


def test_list_scenarios_enumerates_all_packages(capsys):
    assert main(["list-scenarios", "--json"]) == 0
    cases = json.loads(capsys.readouterr().out)
    assert len(cases) >= 10
    packages = {case["name"].split("/")[0] for case in cases}
    assert {"examplesys", "vnext", "migratingtable", "fabric"} <= packages


def test_list_scenarios_tag_filter(capsys):
    assert main(["list-scenarios", "--tag", "table2", "--json"]) == 0
    cases = json.loads(capsys.readouterr().out)
    assert len(cases) == 12
    assert all("table2" in case["tags"] for case in cases)


def test_list_strategies(capsys):
    assert main(["list-strategies", "--json"]) == 0
    names = json.loads(capsys.readouterr().out)
    assert {"random", "pct", "round-robin", "dfs"} <= set(names)


def test_run_then_replay_round_trips(tmp_path, capsys):
    report_path = str(tmp_path / "report.json")
    code = main([
        "run",
        "--scenario", "examplesys/safety-bug",
        "--strategy", "random",
        "--strategy", "pct",
        "--iterations", "200",
        "--workers", "2",
        "--seed", "7",
        "--output", report_path,
        "--expect-bug",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "bug found" in out
    payload = json.loads(open(report_path).read())
    assert payload["scenario"] == "examplesys/safety-bug"

    assert main(["replay", report_path]) == 0
    out = capsys.readouterr().out
    assert "replay reproduced the recorded bug deterministically" in out
    # The trace carries per-step states, so replay shows state context.
    assert "state context" in out
    assert "in state" in out


def test_replay_of_stateless_trace_omits_state_context(tmp_path, capsys):
    report_path = str(tmp_path / "report.json")
    assert main([
        "run", "--scenario", "examplesys/safety-bug", "--strategy", "random",
        "--iterations", "200", "--seed", "7", "--output", report_path,
        "--expect-bug",
    ]) == 0
    capsys.readouterr()
    # Strip the recorded states, as a trace written by an older version.
    payload = json.loads(open(report_path).read())
    for result in payload["results"]:
        for bug in result["report"]["bugs"]:
            if bug.get("trace"):
                bug["trace"].pop("states", None)
    open(report_path, "w").write(json.dumps(payload))
    assert main(["replay", report_path]) == 0
    out = capsys.readouterr().out
    assert "replay reproduced the recorded bug deterministically" in out
    assert "state context" not in out


def test_run_unknown_scenario_fails_cleanly(capsys):
    assert main(["run", "--scenario", "no/such", "--iterations", "1"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_replay_missing_file_fails_cleanly(tmp_path, capsys):
    assert main(["replay", str(tmp_path / "missing.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_run_invalid_max_steps_rejected(capsys):
    code = main([
        "run", "--scenario", "examplesys/fixed", "--iterations", "1",
        "--max-steps", "0",
    ])
    assert code == 2
    assert "max_steps" in capsys.readouterr().err


def test_import_option_loads_file_registered_scenarios(tmp_path, capsys):
    module = tmp_path / "extra_scenarios.py"
    module.write_text(
        "from repro import scenario\n"
        "from repro.examplesys.harness import build_replication_test, safety_bug_configuration\n"
        "@scenario('cli-test/extra', tags=('cli-test',), max_steps=600)\n"
        "def extra():\n"
        "    return build_replication_test(safety_bug_configuration(), check_liveness=False)\n"
    )
    assert main(["list-scenarios", "--tag", "cli-test", "--json",
                 "--import", str(module)]) == 0
    cases = json.loads(capsys.readouterr().out)
    assert [case["name"] for case in cases] == ["cli-test/extra"]

    report_path = str(tmp_path / "extra.json")
    assert main(["run", "--scenario", "cli-test/extra", "--iterations", "150",
                 "--strategy", "random", "--seed", "7",
                 "--output", report_path, "--expect-bug",
                 "--import", str(module)]) == 0
    capsys.readouterr()
    assert main(["replay", report_path, "--import", str(module)]) == 0
    assert "replay reproduced" in capsys.readouterr().out


def _seeded_bug_report(tmp_path, capsys, extra_args=()):
    """Run the seeded examplesys safety bug and return the report path."""
    report_path = str(tmp_path / "report.json")
    assert main([
        "run",
        "--scenario", "examplesys/safety-bug",
        "--strategy", "random",
        "--iterations", "200",
        "--seed", "73",
        "--output", report_path,
        "--expect-bug",
        *extra_args,
    ]) == 0
    capsys.readouterr()
    return report_path


def test_shrink_command_minimizes_and_replays(tmp_path, capsys):
    report_path = _seeded_bug_report(tmp_path, capsys)
    assert main(["shrink", report_path, "--expect-reduction", "5"]) == 0
    out = capsys.readouterr().out
    assert "shrunk" in out
    assert f"report with shrunk trace written to {report_path}" in out

    payload = json.loads(open(report_path).read())
    bug = payload["results"][0]["report"]["bugs"][0]
    assert bug["shrink"]["final_length"] < bug["shrink"]["original_length"]
    assert len(bug["shrunk_trace"]["steps"]) == bug["shrink"]["final_length"]

    assert main(["replay", report_path, "--shrunk"]) == 0
    assert "shrunk trace reproduced the recorded bug class" in capsys.readouterr().out


def test_shrink_command_output_option_leaves_input_untouched(tmp_path, capsys):
    report_path = _seeded_bug_report(tmp_path, capsys)
    before = open(report_path).read()
    out_path = str(tmp_path / "shrunk.json")
    assert main(["shrink", report_path, "--output", out_path]) == 0
    assert open(report_path).read() == before
    payload = json.loads(open(out_path).read())
    assert payload["results"][0]["report"]["bugs"][0]["shrunk_trace"] is not None


def test_run_with_shrink_flag_embeds_shrunk_trace(tmp_path, capsys):
    report_path = _seeded_bug_report(tmp_path, capsys, extra_args=("--shrink",))
    payload = json.loads(open(report_path).read())
    bug = payload["results"][0]["report"]["bugs"][0]
    assert "shrunk_trace" in bug and "shrink" in bug
    assert main(["replay", report_path, "--shrunk"]) == 0


def test_replay_shrunk_without_shrink_fails_cleanly(tmp_path, capsys):
    report_path = _seeded_bug_report(tmp_path, capsys)
    assert main(["replay", report_path, "--shrunk"]) == 1
    assert "no shrunk trace" in capsys.readouterr().err


def test_shrink_report_without_bugs_fails_cleanly(tmp_path, capsys):
    clean_path = str(tmp_path / "clean.json")
    assert main([
        "run", "--scenario", "examplesys/fixed", "--iterations", "5",
        "--seed", "1", "--output", clean_path,
    ]) == 0
    capsys.readouterr()
    assert main(["shrink", clean_path]) == 1
    assert "no replayable bug trace" in capsys.readouterr().err


def test_run_clean_scenario_with_expect_bug_fails(tmp_path, capsys):
    code = main([
        "run",
        "--scenario", "examplesys/fixed",
        "--iterations", "5",
        "--seed", "1",
        "--output", str(tmp_path / "clean.json"),
        "--expect-bug",
    ])
    assert code == 1
    assert "expected" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# serve (ProductionRuntime) and --verbose
# ---------------------------------------------------------------------------
def test_serve_boots_service_under_production_runtime(capsys):
    code = main([
        "serve", "--scenario", "examplesys/service",
        "--clients", "3", "--requests", "5",
        "--tick-interval", "0.002", "--timeout", "60",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "under ProductionRuntime" in out
    assert "events/turn over" in out and "loop turns, run queue <= " in out
    assert "clean shutdown, no monitor violations" in out


def test_serve_json_stats_and_expect_events(capsys):
    code = main([
        "serve", "--scenario", "examplesys/service",
        "--clients", "4", "--requests", "25",
        "--tick-interval", "0.002", "--timeout", "120",
        "--expect-events", "500", "--json",
    ])
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["bug"] is None
    assert stats["quiesced"] is True
    assert stats["events_dispatched"] >= 500
    assert stats["active_machines"] >= 8
    assert stats["events_per_second"] > 0
    # Every pump turn dispatches at least one event; well above 1 means the
    # run queue is batching dispatches into loop turns.
    assert stats["loop_turns"] >= 1
    assert stats["events_per_turn"] >= 1
    assert stats["events_per_turn"] == stats["events_dispatched"] / stats["loop_turns"]
    # Queue depth is sampled per turn, not per event: at least the machine
    # whose work scheduled the turn, at most every machine of the run.
    assert 1 <= stats["max_run_queue"] <= stats["machines"]


def test_serve_rejects_json_with_verbose(capsys):
    code = main([
        "serve", "--scenario", "examplesys/service", "--json", "--verbose",
    ])
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_serve_rejects_load_flags_the_scenario_does_not_accept(capsys):
    code = main([
        "serve", "--scenario", "examplesys/fixed", "--clients", "2",
        "--timeout", "5",
    ])
    assert code == 2
    assert "does not accept --clients" in capsys.readouterr().err


def test_run_verbose_streams_log_records_live(tmp_path, capsys):
    assert main([
        "run", "--scenario", "examplesys/fixed",
        "--strategy", "random", "--iterations", "2", "--seed", "1",
        "--output", str(tmp_path / "clean.json"), "--verbose",
    ]) == 0
    out = capsys.readouterr().out
    assert "[repro] created" in out
    assert "[repro] sent" in out


def test_replay_verbose_streams_log_records_live(tmp_path, capsys):
    report_path = _seeded_bug_report(tmp_path, capsys)
    assert main(["replay", report_path, "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "[repro]" in out
    assert "replay reproduced the recorded bug deterministically" in out


# ---------------------------------------------------------------------------
# analyze: rule catalog, communication graph, pruned runs
# ---------------------------------------------------------------------------
def test_analyze_list_rules(capsys):
    assert main(["analyze", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("unhandled-event", "dead-event", "unbounded-send-cycle",
                 "unused-ignore"):
        assert rule in out
    assert main(["analyze", "--list-rules", "--json"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    assert catalog["dead-event"]["severity"] == "warning"
    assert list(catalog) == sorted(catalog)


def test_analyze_graph_emits_byte_stable_json(capsys):
    assert main(["analyze", "--graph", "--scenario", "vnext/extent-node-liveness"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", "--graph", "--scenario", "vnext/extent-node-liveness"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert set(payload) == {"nodes", "edges"}


def test_analyze_graph_dot(capsys):
    assert main(["analyze", "--graph", "--dot",
                 "--scenario", "vnext/extent-node-liveness"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "TestingDriverMachine" in out


def test_analyze_dot_without_graph_is_a_usage_error(capsys):
    assert main(["analyze", "--dot"]) == 2
    assert "--graph" in capsys.readouterr().err


def test_run_prune_defaults_to_dpor_lite_and_finds_the_bug(tmp_path, capsys):
    report_path = str(tmp_path / "pruned.json")
    assert main([
        "run", "--scenario", "vnext/extent-node-liveness", "--prune",
        "--iterations", "200", "--max-steps", "12",
        "--output", report_path, "--expect-bug",
    ]) == 0
    out = capsys.readouterr().out
    assert "dpor-lite" in out
    with open(report_path) as handle:
        payload = json.load(handle)
    assert any(result["unit"]["strategy"] == "dpor-lite"
               for result in payload["results"])


def test_run_parallel_writes_replayable_report(tmp_path, capsys):
    report_path = str(tmp_path / "parallel.json")
    code = main([
        "run",
        "--scenario", "vnext/failover-1node",
        "--parallel", "2",
        "--claim-iterations", "9",
        "--iterations", "100000",
        "--max-steps", "5",
        "--stateful",
        "--output", report_path,
        "--expect-bug",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "parallel[dfs]" in out
    assert "space exhausted" in out
    assert "bug found" in out

    # one report model: replay reads the claim units as it reads jobs
    assert main(["replay", report_path]) == 0
    out = capsys.readouterr().out
    assert "replay reproduced the recorded bug deterministically" in out


def test_run_parallel_json_includes_worker_stats(capsys):
    code = main([
        "run",
        "--scenario", "vnext/failover-1node",
        "--parallel", "2",
        "--claim-iterations", "9",
        "--iterations", "100000",
        "--max-steps", "4",
        "--prune",
        "--stateful",
        "--output", "",
        "--json",
    ])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["state_space_exhausted"] is True
    assert payload["claims"] >= 1
    assert payload["workers"]
    assert {"worker", "claims", "executions", "busy_seconds"} <= set(payload["workers"][0])
    assert sum(entry["executions"] for entry in payload["workers"]) == payload["total_iterations"]


def test_run_parallel_rejects_multiple_strategies(capsys):
    code = main([
        "run",
        "--scenario", "vnext/failover-1node",
        "--parallel", "2",
        "--strategy", "dfs",
        "--strategy", "dpor-lite",
    ])
    assert code == 2
    assert "single" in capsys.readouterr().err


_NOISY_BOMB_MODULE = """\
from repro import Event, Machine, on_event, scenario

class Tick(Event):
    pass

class Noise(Machine):
    def on_start(self):
        self.left = 4
        self.send(self.id, Tick())

    @on_event(Tick)
    def tick(self, event):
        self.left -= 1
        if self.left:
            self.send(self.id, Tick())

class Bomb(Machine):
    def on_start(self):
        self.assert_that(False, "boom")

@scenario("cli-test/noisy-bomb", max_steps=50)
def noisy_bomb():
    def entry(runtime):
        runtime.create_machine(Noise)
        runtime.create_machine(Bomb)
    return entry
"""


def test_run_parallel_with_shrink_embeds_shrunk_trace(tmp_path, capsys):
    # depth-first order runs the noise machine's steps before the failing
    # one, so the recorded trace has something to shrink away
    module = tmp_path / "noisy_bomb.py"
    module.write_text(_NOISY_BOMB_MODULE)
    report_path = str(tmp_path / "parallel-shrunk.json")
    assert main([
        "run",
        "--import", str(module),
        "--scenario", "cli-test/noisy-bomb",
        "--parallel", "2",
        "--claim-iterations", "3",
        "--stop-on-bug",
        "--shrink",
        "--output", report_path,
        "--expect-bug",
    ]) == 0
    out = capsys.readouterr().out
    assert "parallel[dfs]" in out
    assert "shrunk 6 -> 1 steps" in out
    with open(report_path) as handle:
        payload = json.load(handle)
    bugs = [bug for result in payload["results"] for bug in result["report"]["bugs"]]
    # the winning bug — the first in claim order — carries the shrunk trace
    assert len(bugs[0]["shrunk_trace"]["steps"]) == bugs[0]["shrink"]["final_length"] == 1
    assert all("shrink" not in bug for bug in bugs[1:])
    # strict replay of the shrunk trace reproduces the bug class
    assert main(["replay", report_path, "--shrunk", "--import", str(module)]) == 0
    assert "shrunk trace reproduced the recorded bug class" in capsys.readouterr().out


def test_parallel_smoke_report_stores_the_table_once_and_still_replays(tmp_path, capsys):
    """The CI smoke command: units carry only what varies, so the shared
    config — independence table included — is written once, not per claim."""
    report_path = str(tmp_path / "smoke.json")
    assert main([
        "run",
        "--scenario", "vnext/failover-1node",
        "--parallel", "2",
        "--claim-iterations", "25",
        "--prune",
        "--stateful",
        "--iterations", "100000",
        "--max-steps", "6",
        "--output", report_path,
        "--expect-bug",
    ]) == 0
    capsys.readouterr()
    with open(report_path) as handle:
        text = handle.read()
    payload = json.loads(text)
    assert len(payload["results"]) > 100
    assert text.count('"independence"') == 1
    assert payload["config"]["independence"]["machines"]
    assert all(set(r["unit"]) == {"index", "strategy", "seed", "iterations", "claim"}
               for r in payload["results"])

    assert main(["replay", report_path]) == 0
    assert "replay reproduced the recorded bug deterministically" in capsys.readouterr().out
    assert main(["shrink", report_path]) == 0
    assert "report with shrunk trace written" in capsys.readouterr().out
    assert main(["replay", report_path, "--shrunk"]) == 0


def test_run_stop_on_bug_portfolio(tmp_path, capsys):
    report_path = str(tmp_path / "stop.json")
    code = main([
        "run",
        "--scenario", "examplesys/safety-bug",
        "--strategy", "random",
        "--iterations", "400",
        "--shards", "4",
        "--stop-on-bug",
        "--output", report_path,
        "--expect-bug",
    ])
    assert code == 0
    assert "bug found" in capsys.readouterr().out
    with open(report_path) as handle:
        payload = json.load(handle)
    # cancelled shards are zero-execution placeholders in the saved report
    executed = [result["report"]["iterations_executed"] for result in payload["results"]]
    assert len(executed) == 4
    assert any(count == 0 for count in executed)
