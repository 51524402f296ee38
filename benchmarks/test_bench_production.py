"""Benchmark: ProductionRuntime soak + throughput regression gate.

The acceptance bar for the concurrent controller: the examplesys service
sustains >= 50k dispatched events across >= 8 concurrently-running machines
with zero monitor violations and a clean (quiescent) shutdown — checked on
every one of three soaks — and the best of the three clears a throughput
floor ~10x under what the run queue + pump measures on 2 CPUs (~150k ev/s),
so falling back to a loop turn per event (~60k) is visible in the ledger and
an order-of-magnitude regression fails the gate.  The numbers land in
``BENCH_results.json`` under ``production-soak``.  The same harness classes
run under the testing controller (see ``tests/core/test_production.py``);
this module is the production-side gate, mirroring how
``test_bench_runtime_hotpath.py`` gates testing mode.
"""

import os
import platform
import time

try:
    from conftest import record_bench_result
except ImportError:  # imported as a plain module, outside a pytest session
    def record_bench_result(gate, **metrics):
        pass

from repro.core import ProductionRuntime
from repro.examplesys.harness.service import LoadClient, build_service_test

#: Floor on sustained production dispatch throughput (events/second), judged
#: on the best of three soaks.  With a machine step held in the pump's frame
#: the 2-CPU dev container (CPython 3.11.7) measures 125–185k ev/s per soak
#: (84–126k dispatching through per-step helper calls, 55–65k with a mailbox
#: task per machine; the host drifts that much between soaks);
#: halve that for a loaded runner and 12k still leaves >= 5x headroom, while
#: a structural regression (busy polling, a loop turn or a thread hop per
#: event) lands well under it.
REQUIRED_EVENTS_PER_SECOND = 12_000

#: Same report-only escape hatch as the hot-path gate: ordinary test-suite
#: CI jobs on loaded shared runners set REPRO_BENCH_ASSERT_SPEEDUP=0.
ASSERT_SPEEDUP = os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP", "1") != "0"

#: 8 clients x 700 closed-loop requests; each request costs ~10 dispatches
#: (submit, forward, 3 replications, 3 push-syncs, 2 acks) plus timer noise,
#: comfortably clearing the 50k-event soak bar.
NUM_CLIENTS = 8
NUM_REQUESTS = 700
REQUIRED_EVENTS = 50_000


def _soak():
    """One full soak, checked for correctness; returns (seconds, events)."""
    runtime = ProductionRuntime(tick_interval=0.002)
    started = time.perf_counter()
    bug = runtime.run(
        build_service_test(num_clients=NUM_CLIENTS, num_requests=NUM_REQUESTS),
        timeout=240,
    )
    elapsed = time.perf_counter() - started

    assert bug is None, f"production soak found: {bug}"
    assert runtime.termination_reason == "quiescence"
    dispatched = runtime.step_count
    assert dispatched >= REQUIRED_EVENTS, (
        f"soak dispatched only {dispatched} events (< {REQUIRED_EVENTS})"
    )
    # Machines that dispatched beyond their StartEvent — i.e. actually
    # participated in the soak's event traffic.
    active_machines = runtime.active_machine_count()
    assert active_machines >= 8, (
        f"only {active_machines} machines dispatched events (>= 8 required)"
    )
    clients = runtime.machines_of_type(LoadClient)
    assert len(clients) == NUM_CLIENTS
    assert all(len(client.acked) == NUM_REQUESTS for client in clients), (
        "every request of every client must be acknowledged"
    )
    print(f"[production] dispatched:  {dispatched} events across {active_machines} "
          f"machines in {elapsed:.2f}s, {dispatched / runtime.loop_turns:.1f} events/turn")
    return elapsed, dispatched


def test_bench_production_soak_throughput():
    print()
    elapsed, dispatched = min(_soak() for _ in range(3))
    throughput = dispatched / elapsed
    print(f"[production] throughput:  {throughput:.0f} events/s, best of 3 on "
          f"{os.cpu_count()} CPUs (required: {REQUIRED_EVENTS_PER_SECOND})")
    record_bench_result(
        "production-soak",
        seconds_min3=round(elapsed, 3),
        events=dispatched,
        events_per_second=round(throughput),
        cpus=os.cpu_count(),
        python=platform.python_version(),
    )
    if ASSERT_SPEEDUP:
        assert throughput >= REQUIRED_EVENTS_PER_SECOND, (
            f"production throughput regressed: {throughput:.0f} events/s < "
            f"{REQUIRED_EVENTS_PER_SECOND}"
        )
