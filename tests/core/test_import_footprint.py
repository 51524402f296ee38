"""A timing-free guard on the start-up path: what a fresh interpreter loads.

``setup_s`` drifts with the host; a module list does not.  The package facades
(``repro``, ``repro.core``, ``repro.core.runtime``, ``repro.analysis``) resolve
their exports lazily and the heavy standard-library imports sit at the one
place each is used, so a hunt that never serves, forks or analyzes loads
neither ``asyncio`` nor ``multiprocessing`` nor the analyzer.  Each case runs
in a subprocess (this process has long since imported everything) and reads
``sys.modules``: a module put back on the start-up path fails here by name
instead of drifting a benchmark.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: loaded by no run that never serves, forks, stores a cache entry or analyzes
DEFERRED = (
    "asyncio",
    "concurrent.futures",
    "ssl",
    "multiprocessing",
    "tempfile",
    "repro.analysis",
    "repro.core.runtime.production",
    "repro.core.parallel",
)

#: ``repro.*`` modules a five-iteration ``run_scenario`` may load: 41 when the
#: ceiling was set (core 32 of them, the examplesys harness 9); 77 before.
MAX_REPRO_MODULES_FOR_A_HUNT = 45


_REPORT = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"


def _modules_after(script, *argv):
    """``sys.modules`` names of a fresh interpreter that ran ``script``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    result = subprocess.run(
        [sys.executable, "-c", script + _REPORT, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        check=True,
        timeout=120,
    )
    return set(json.loads(result.stdout.splitlines()[-1]))


def _repro_modules(modules):
    return {name for name in modules if name == "repro" or name.startswith("repro.")}


def test_import_repro_loads_the_facade_alone():
    modules = _modules_after("import repro")
    assert _repro_modules(modules) == {"repro", "repro._lazy"}
    assert not modules.intersection(DEFERRED)


def test_a_serial_hunt_loads_no_server_pool_or_analyzer():
    modules = _modules_after(
        "from repro.core import Machine, Monitor, TestingEngine, TestingConfig, run_scenario\n"
        "report = run_scenario('examplesys/safety-bug', iterations=5)\n"
        "assert report.iterations_executed >= 1\n"
    )
    assert not modules.intersection(DEFERRED)
    loaded = _repro_modules(modules)
    assert len(loaded) <= MAX_REPRO_MODULES_FOR_A_HUNT, sorted(loaded)


def test_cli_run_loads_no_server_pool_or_analyzer():
    modules = _modules_after(
        "import contextlib, io, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(sys.argv[1:]) == 0\n",
        "run", "--scenario", "vnext/extent-node-liveness", "--iterations", "5",
    )  # fmt: skip
    assert not modules.intersection(DEFERRED)


def test_get_scenario_loads_only_the_case_study_it_names():
    modules = _modules_after(
        "from repro.core.registry import _SCENARIOS, get_scenario\n"
        "assert get_scenario('vnext/failover-1node').name == 'vnext/failover-1node'\n"
        "assert all(name.startswith('vnext/') for name in _SCENARIOS)\n"
    )
    packages = {name.split(".")[1] for name in _repro_modules(modules) if "." in name}
    assert packages == {"_lazy", "core", "vnext"}


def test_discovery_and_cache_load_no_checker():
    modules = _modules_after("from repro.analysis import discover_classes, AnalysisCache")
    loaded = _repro_modules(modules)
    assert {"repro.analysis.extract", "repro.analysis.cache", "repro.analysis.model"} <= loaded
    for deferred in ("checkers", "commgraph", "dataflow", "independence", "report", "runner"):
        assert f"repro.analysis.{deferred}" not in loaded
    assert "tempfile" not in modules


def test_a_table_build_loads_no_checker_or_graph():
    modules = _modules_after(
        "from repro.analysis import independence_for_scenarios\n"
        "from repro.core import get_scenario\n"
        "table = independence_for_scenarios([get_scenario('vnext/failover-1node')])\n"
        "assert table['machines']\n"
    )
    for deferred in ("checkers", "commgraph", "dataflow", "report"):
        assert f"repro.analysis.{deferred}" not in modules
    assert "tempfile" not in modules and "asyncio" not in modules


def test_the_benchmark_set_up_loads_no_server_or_checker():
    """``bench/``'s own imports plus ``load_builtin_scenarios``: every harness
    (that is what it asks for), the analyzer's discovery and cache, no more —
    72 ``repro.*`` modules when the ceiling was set, 77 + ``asyncio`` before."""
    modules = _modules_after(
        "import sys\n"
        "sys.path.insert(0, 'bench')\n"
        "import workloads, adapters\n"
        "assert adapters.load() >= 38\n"
    )
    assert not modules.intersection(
        ("asyncio", "ssl", "tempfile", "repro.analysis.checkers", "repro.analysis.commgraph")
    )
    assert len(_repro_modules(modules)) <= 79


def test_production_runtime_loads_asyncio_when_started_not_when_imported():
    modules = _modules_after(
        "import sys, threading\n"
        "from repro.core import ProductionRuntime, get_scenario\n"
        "runtime = ProductionRuntime(tick_interval=0.001)\n"
        "assert 'asyncio' not in sys.modules and 'concurrent.futures' not in sys.modules\n"
        "entry = get_scenario('examplesys/service').build(num_clients=2, num_requests=5)\n"
        "outcome = []\n"
        "worker = threading.Thread(target=lambda: outcome.append(runtime.run(entry, timeout=60)))\n"
        "worker.start()\n"
        "worker.join(90)\n"
        "assert not worker.is_alive()\n"
        "assert outcome == [None], outcome\n"
        "assert runtime.termination_reason == 'quiescence'\n"
    )
    assert "asyncio" in modules and "repro.core.runtime.production" in modules
    assert "multiprocessing" not in modules and "repro.analysis" not in modules
