"""Smoke test of the benchmark's plumbing, at toy scale.

Runs every workload through ``run.py`` twice (end-to-end and traced) with
budgets so small the numbers mean nothing, and checks what the driver relies
on: the result line's shape, the names, that every metric ``BENCHMARK.json``
declares is printed for every workload, and that running the benchmark leaves
the repository's own ledgers alone.
"""

import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
LEDGERS = ("BENCH_results.json", ".repro-cache")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def _ledger_state():
    state = {}
    for name in LEDGERS:
        path = os.path.join(ROOT, name)
        if os.path.isdir(path):
            state[name] = sorted((entry, os.stat(os.path.join(path, entry)).st_mtime_ns)
                                 for entry in os.listdir(path))  # fmt: skip
        elif os.path.exists(path):
            state[name] = os.stat(path).st_mtime_ns
    return state


def _run(workload, trace):
    # The same arguments the driver passes, plus the toy scale.
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--scale", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )  # fmt: skip


@pytest.fixture(scope="module")
def runs():
    before = _ledger_state()
    jobs = [(workload, trace) for trace in (1, 0) for workload in WORKLOADS]
    # Every run is a few short-lived interpreters; overlapping them keeps the
    # whole module to a few seconds.
    with ThreadPoolExecutor(max_workers=4) as pool:
        finished = list(pool.map(lambda job: _run(*job), jobs))
    return dict(zip(jobs, finished)), before, _ledger_state()


def test_every_run_passes_its_own_checks(runs):
    for (workload, trace), process in runs[0].items():
        assert process.returncode == 0, (workload, trace, process.stdout, process.stderr)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_the_contract_shape(runs, trace, section):
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    for workload in WORKLOADS:
        result = json.loads(runs[0][workload, trace].stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        # every declared metric, for every workload, and nothing else
        assert set(result["metrics"]) == set(declared), workload
        for name, metric in result["metrics"].items():
            assert set(metric) == {"value", "unit"}
            assert metric["unit"] == declared[name]
            assert isinstance(metric["value"], (int, float))
            if section == "end_to_end":
                assert metric["value"] > 0, (workload, name)


def test_metrics_are_also_printed_by_name_with_their_unit(runs):
    for (workload, trace), process in runs[0].items():
        section = "per_layer" if trace else "end_to_end"
        rows = {line.split()[0]: line.split()[1] for line in process.stdout.splitlines()
                if line and not line.startswith(("#", "{", "exact", "metric", "spans"))}  # fmt: skip
        assert rows == {m["name"]: m["unit"] for m in BENCHMARK[section]}, workload


def test_names_and_units_are_within_the_contract():
    names = WORKLOADS + [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in BENCHMARK["end_to_end"])
    # workloads._nominal scales per-layer numbers by the suffix of their name
    for metric in BENCHMARK["per_layer"]:
        suffix = "per_s" if metric["unit"] == "1/s" else metric["unit"]
        named_as_time = metric["name"].endswith(("_per_s", "_us", "_ms", "_s"))
        assert named_as_time == (metric["unit"] in ("1/s", "us", "ms", "s")), metric
        assert not named_as_time or metric["name"].endswith("_" + suffix), metric


def test_traced_runs_leave_a_span_file(runs):
    for workload in WORKLOADS:
        with open(os.path.join(BENCH_DIR, "out", f"trace-{workload}.json")) as handle:
            spans = json.load(handle)["spans"]
        assert {"setup", "pass"} <= {span["name"] for span in spans}
        assert all(span["end_ns"] >= span["start_ns"] for span in spans)


def test_repository_ledgers_are_untouched(runs):
    _, before, after = runs
    assert before == after
