"""The seven workloads: definitions, pinned reference answers, failure accounting.

One *repetition* (``run_rep``) is what ``rep.py`` runs in a fresh interpreter:
set up, run one timed pass, check the outputs, return plain numbers.  All
calls into the program go through ``adapters.py``.

Budgets below are part of the benchmark's definition: later PRs are compared
on them, so they do not change.  They are sized so that one pass takes from
0.3 s to a little over 2 s: ``run.py`` reports the median of the repetitions
that fit in a run, and that is steady only with many of them (README, *Why
times are scaled by a gauge*).  ``toy`` is the scale ``test_smoke.py`` runs
to check the plumbing; its numbers mean nothing.
"""

from __future__ import annotations

import os
import random
import resource
import time
import traceback
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import adapters
import hostspeed
from tracing import Tracer, clock

FAILOVER = "vnext/failover-1node"
FAILOVER_FIXED = "vnext/failover-fixed"

# ---------------------------------------------------------------------------
# reference answers (never recomputed by the code path under test)
# ---------------------------------------------------------------------------
#: Every schedule of the one-node failover scenario ends with the repair
#: monitor still hot at the step bound, so every exhaustive search must report
#: liveness bugs and nothing else.  Obtained from plain ``dfs`` (no pruning
#: layer on) at bounds 5 to 8: 275 / 1 644 / 10 669 / 74 156 schedules, all
#: ``liveness``.
EXHAUST_BUG_KINDS = ["liveness"]

#: max_steps -> (distinct states, ``CoverageTracker.fingerprint_digest()``) of
#: the one-node failover scenario.  Obtained with plain ``dfs`` +
#: ``fingerprints=True`` — no sleep sets, no state dedupe, no claims — at the
#: parent of the commit that added this file.  Every pruning layer must reach
#: exactly this set, so ``exhaust-stateful`` (bound 6), ``exhaust-dpor`` and
#: ``exhaust-parallel`` (bound 7) are checked against it and, sharing a bound,
#: against each other.  Bound 8 is run by no workload; it is kept because it
#: takes 74 156 schedules, 123 s and 334 MiB to obtain.
FAILOVER_STATES: Dict[int, Tuple[int, str]] = {
    5: (201, "f8236f45940c646ec9ae4c2e44b11915265ed95b502eea96a63d425f5163a160"),
    6: (665, "fb7edd69a8e832abd842761f21ee52a8d5985e8e17c6c858793a5a29d56e25cd"),
    7: (2046, "352fa3165e9092ad3f54ecf42621da60cece4524e8d226b5d4e45da76461df29"),
    8: (5884, "3ebeec0f3e6236f24754c3d216fc3fe8507dec8efaa37c7c73ef747083be3e15"),
}

#: Hunts of the Table 2 sweep (12 bugs x {random, pct}, strategy seed 5) that
#: find their bug within ``TABLE2_BUDGET`` executions, directed fallback
#: included.  Obtained by running
#: ``repro.experiments.table2.generate_table2(25, 5)`` at the same parent
#: commit and counting ``bug_found`` cells (the paper-sized budget of 300 finds
#: 13, in 9 s).
TABLE2_BUDGET = 25
TABLE2_BUGS_FOUND = 10

#: Strategy seed of every hunt.  Pinned, not taken from ``--seed``: executions
#: to first bug under a random scheduler are geometrically distributed across
#: seeds (seeds 1-7 measured 4.9-8.5 s per 300-execution sweep and 12-19
#: bugs), which no run of a few seconds averages below any usable bound.
#: ``--seed`` permutes the order of the 24 hunts instead, which must change
#: nothing.
HUNT_SEED = 5


class Workload(NamedTuple):
    kind: str
    full: Dict[str, Any]
    toy: Dict[str, Any]
    #: what ``--seed`` changes, printed with every result
    seed_effect: str


_EXHAUST_SEED = "none: exhaustive search is deterministic"

WORKLOADS: Dict[str, Workload] = {
    "hunt-table2": Workload(
        "hunt",
        {"iterations": TABLE2_BUDGET, "limit": None, "bugs_found": TABLE2_BUGS_FOUND},
        {"iterations": 20, "limit": 3, "bugs_found": None},
        f"order of the hunts (strategy seed pinned to {HUNT_SEED})",
    ),
    "exhaust-dfs": Workload(
        "exhaust",
        {"strategy": "dfs", "max_steps": 6},
        {"strategy": "dfs", "max_steps": 5},
        _EXHAUST_SEED,
    ),
    "exhaust-stateful": Workload(
        "exhaust",
        {"strategy": "dfs", "max_steps": 6, "stateful": True},
        {"strategy": "dfs", "max_steps": 5, "stateful": True},
        _EXHAUST_SEED,
    ),
    "exhaust-dpor": Workload(
        "exhaust",
        {"strategy": "dpor-lite", "max_steps": 7, "stateful": True, "fingerprints": True,
         "table": True},
        {"strategy": "dpor-lite", "max_steps": 5, "stateful": True, "fingerprints": True,
         "table": True},
        _EXHAUST_SEED,
    ),
    "exhaust-parallel": Workload(
        "exhaust",
        {"strategy": "dpor-lite", "max_steps": 7, "stateful": True, "fingerprints": True,
         "table": True, "parallel": True},
        {"strategy": "dpor-lite", "max_steps": 5, "stateful": True, "fingerprints": True,
         "table": True, "parallel": True},
        _EXHAUST_SEED,
    ),
    "cover-random": Workload(
        "cover",
        {"executions": 5, "max_steps": 3000, "fingerprints": True},
        {"executions": 2, "max_steps": 1500, "fingerprints": True},
        "scheduler seed (the work is fixed by the execution and step budgets)",
    ),
    # Traced comparator of cover-random, not a workload of its own: the same
    # seeds give the same schedules, so the difference is the fingerprint layer.
    "cover-random.off-twin": Workload(
        "cover",
        {"executions": 5, "max_steps": 3000, "fingerprints": False},
        {"executions": 2, "max_steps": 1500, "fingerprints": False},
        "scheduler seed",
    ),
    "serve": Workload(
        "serve",
        {"clients": 8, "requests": 800},
        {"clients": 8, "requests": 20},
        "none: ProductionRuntime seeds itself from os.urandom",
    ),
}  # fmt: skip

#: per-claim budget of ``exhaust-parallel`` (the CLI's ``--claim-iterations 40``)
CLAIM_ITERATIONS = 40
#: wall-clock timer period of ``serve``
TICK_INTERVAL = 0.002
#: length of the gauge reading on either side of the timed pass, per scale
GAUGE_READ_S = {"full": 0.1, "toy": 0.005}
#: rounds over the ``stable_hash`` corpus (33 values): ~10 ms
STABLE_HASH_ROUNDS = 40


def parallel_workers() -> int:
    return min(os.cpu_count() or 1, 4)


# ---------------------------------------------------------------------------
# one repetition
# ---------------------------------------------------------------------------
def run_rep(
    name: str,
    scale: str,
    seed: int,
    tracer: Optional[Tracer],
    spawned_ns: int,
    imported_ns: Tuple[int, int],
) -> Dict[str, Any]:
    """Set up, read the gauge, run one timed pass, read the gauge, check the
    outputs; ``spawned_ns`` is the parent's ``perf_counter_ns`` just before it
    started this interpreter.  Times come back in nominal seconds."""
    workload = WORKLOADS[name]
    params = dict(getattr(workload, scale))
    layers: Dict[str, float] = {}
    with _span(tracer, "setup", spawned_ns):
        if tracer is not None:
            tracer.add("setup.import", *imported_ns, tracer.current)
        with _span(tracer, "setup.load_scenarios"):
            adapters.load()
        with _span(tracer, "setup.build"):
            run_pass = _KINDS[workload.kind](params, seed, tracer, layers)
    setup = (clock() - spawned_ns) / 1e9
    before = hostspeed.read(GAUGE_READ_S[scale])
    ready = clock()
    with _span(tracer, "pass", ready):
        outcome = run_pass()
    wall = (clock() - ready) / 1e9
    gauge = (before + hostspeed.read(GAUGE_READ_S[scale])) / 2
    # High-water mark of the pass itself, read before the checks allocate.
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if params.get("parallel"):
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    attempted, failed, messages = outcome.check()
    outcome.layers(wall, tracer, layers)
    to_nominal = hostspeed.NOMINAL_KERNEL_S / gauge
    return {
        "workload": name,
        "seed_effect": workload.seed_effect,
        "start_method": adapters.start_method(),
        # set-up is scaled by the reading that follows it, the pass by the
        # two around it
        "setup_s": setup * hostspeed.NOMINAL_KERNEL_S / before,
        "wall_s": wall * to_nominal,
        "peak_rss_mb": rss_kb / 1024,
        "raw_wall_s": wall,
        "gauge_us": gauge * 1e6,
        "attempted": attempted,
        "failed": failed,
        "failures": messages,
        "exact": outcome.exact(),
        "layers": {key: _nominal(key, value, to_nominal) for key, value in layers.items()},
    }


def _nominal(name: str, value: float, to_nominal: float) -> float:
    """Scale a per-layer number if its name says it is a time or a rate."""
    if name.endswith("_per_s"):
        return value / to_nominal
    if name.endswith(("_us", "_ms", "_s")):
        return value * to_nominal
    return value


def _span(tracer: Optional[Tracer], name: str, start_ns: Optional[int] = None):
    """``tracer.span`` that is a no-op without a tracer."""
    return tracer.span(name, start_ns) if tracer is not None else nullcontext()


def _traced_layers(tracer: Tracer, layers: Dict[str, float]) -> None:
    """What the strategy proxy and the entry wrapper saw, per unit of work."""
    executions = tracer.count("execution")
    steps = tracer.counter("execution", "steps")
    choices = tracer.counter("execution", "choices")
    prepares = tracer.count("strategy.prepare")
    layers["runtime.steps"] = steps
    layers["runtime.step_us"] = tracer.execution_self_ns() / 1e3 / max(steps, 1)
    layers["kernel.entry_us"] = tracer.total_ns("kernel.entry") / 1e3 / max(executions, 1)
    layers["strategy.choices"] = choices
    layers["strategy.choice_us"] = tracer.counter("execution", "choice_ns") / 1e3 / max(choices, 1)
    layers["strategy.prepare_us"] = tracer.total_ns("strategy.prepare") / 1e3 / max(prepares, 1)


# ---------------------------------------------------------------------------
# hunt-table2
# ---------------------------------------------------------------------------
class _HuntOutcome:
    def __init__(self, hunts: List[Dict[str, Any]], pinned_found: Optional[int]) -> None:
        self.hunts = hunts
        self.pinned_found = pinned_found
        self.found = [h for h in hunts if h.get("found")]
        self.replay_ms = 0.0

    def check(self) -> Tuple[int, int, List[str]]:
        messages = []
        failed = 0
        for hunt in self.hunts:
            label = f"{hunt['scenario']}/{hunt['strategy']}"
            problem = hunt.get("error")
            if problem is None and hunt["found"]:
                if hunt["kind"] != hunt["expected_kind"]:
                    problem = f"found a {hunt['kind']} bug, expected {hunt['expected_kind']}"
                else:
                    started = time.perf_counter()
                    try:
                        reproduced = adapters.replay_reproduces(hunt)
                    except Exception:
                        reproduced = False
                    self.replay_ms += (time.perf_counter() - started) * 1e3
                    if not reproduced:
                        problem = "recorded trace does not strict-replay to the same bug"
            if problem is not None:
                failed += 1
                messages.append(f"{label}: {problem}")
        if self.pinned_found is not None and len(self.found) != self.pinned_found:
            failed = len(self.hunts)
            messages.append(f"bugs_found {len(self.found)} != pinned {self.pinned_found}")
        return len(self.hunts), failed, messages

    def exact(self) -> Dict[str, Any]:
        return {
            "bugs_found": len(self.found),
            "schedules": sum(h.get("executions", 0) for h in self.hunts),
        }

    def layers(self, wall: float, tracer: Optional[Tracer], layers: Dict[str, float]) -> None:
        schedules = self.exact()["schedules"]
        layers["engine.schedules"] = schedules
        layers["engine.schedules_per_s"] = schedules / wall
        layers["engine.bugs_found"] = len(self.found)
        layers["engine.first_bug_s"] = sum(h["first_bug_s"] for h in self.found)
        layers["engine.replay_ms"] = self.replay_ms
        layers["portfolio.overhead_ms"] = (
            sum(h.get("overhead_s", 0.0) for h in self.hunts) * 1e3 / len(self.hunts)
        )
        if tracer is not None:
            _traced_layers(tracer, layers)


def _setup_hunt(params, seed, tracer, layers) -> Callable[[], _HuntOutcome]:
    hunts = [
        (target, strategy)
        for target in adapters.table2_hunts()
        for strategy in ("random", "pct")
    ][: params["limit"]]
    random.Random(seed).shuffle(hunts)

    def run_pass() -> _HuntOutcome:
        outcomes = []
        for target, strategy in hunts:
            try:
                outcomes.append(
                    adapters.hunt(target, strategy, params["iterations"], HUNT_SEED, tracer)
                )
            except Exception:  # one failed hunt is one failed operation
                outcomes.append(
                    {"scenario": target.scenario, "strategy": strategy,
                     "error": traceback.format_exc(limit=3)}
                )  # fmt: skip
        return _HuntOutcome(outcomes, params["bugs_found"])

    return run_pass


# ---------------------------------------------------------------------------
# exhaust-*
# ---------------------------------------------------------------------------
class _ExhaustOutcome:
    def __init__(self, search: Dict[str, Any], params: Dict[str, Any]) -> None:
        self.search = search
        self.params = params

    def check(self) -> Tuple[int, int, List[str]]:
        search = self.search
        messages = []
        if not search["exhausted"]:
            messages.append("state space not exhausted")
        if search["bug_kinds"] != EXHAUST_BUG_KINDS:
            messages.append(f"bug kinds {search['bug_kinds']} != {EXHAUST_BUG_KINDS}")
        if search["digest"] is not None:
            states, digest = FAILOVER_STATES[self.params["max_steps"]]
            if (search["distinct_states"], search["digest"]) != (states, digest):
                messages.append(
                    f"fingerprint set {search['distinct_states']} states / "
                    f"{search['digest'][:12]} != pinned {states} / {digest[:12]}"
                )
        return 1, 1 if messages else 0, messages

    def exact(self) -> Dict[str, Any]:
        exact = {
            "distinct_states": self.search["distinct_states"],
            "digest": self.search["digest"],
        }
        if not self.params.get("parallel"):  # claim splitting depends on timing
            exact["schedules"] = self.search["schedules"]
        return exact

    def layers(self, wall: float, tracer: Optional[Tracer], layers: Dict[str, float]) -> None:
        search = self.search
        layers["engine.schedules"] = search["schedules"]
        layers["engine.schedules_per_s"] = search["schedules"] / wall
        if search["distinct_states"]:
            layers["fingerprint.distinct_states"] = search["distinct_states"]
            layers["strategy.schedules_per_state"] = (
                search["schedules"] / search["distinct_states"]
            )
        if self.params.get("parallel"):
            for key in ("workers", "claims", "claims_covered", "claims_split", "imbalance"):
                layers[f"parallel.{key}"] = search[key]
            layers["parallel.busy_share"] = search["busy_s"] / (search["workers"] * wall)
        if tracer is None:
            return
        if not self.params.get("parallel"):
            # (parallel workers build their own engines: no proxy is inside)
            _traced_layers(tracer, layers)
        if self.params.get("parallel") or search["digest"] is None:
            # exhaust-dfs keeps a bug per schedule: the largest report there is
            layers.update(_prefixed("report", adapters.report_roundtrip(search)))
        if search["distinct_states"]:
            layers["fingerprint.stable_hash_us"] = adapters.time_stable_hash(STABLE_HASH_ROUNDS)


def _prefixed(prefix: str, values: Dict[str, float]) -> Dict[str, float]:
    return {f"{prefix}.{key}": value for key, value in values.items()}


def _setup_exhaust(params, seed, tracer, layers) -> Callable[[], _ExhaustOutcome]:
    table = None
    if params.get("table"):
        if tracer is None:
            table = adapters.build_independence_table(FAILOVER)
        else:
            with tracer.span("analysis"):
                table, timings = adapters.time_analysis(
                    FAILOVER, os.environ["REPRO_ANALYSIS_CACHE"]
                )
            layers.update(_prefixed("analysis", timings))
    config = adapters.search_config(
        params["strategy"],
        params["max_steps"],
        iterations=2_000_000,
        stateful=params.get("stateful", False),
        fingerprints=params.get("fingerprints", False),
        independence=table,
    )
    if params.get("parallel"):
        workers = parallel_workers()

        def run_pass() -> _ExhaustOutcome:
            with _span(tracer, "parallel.run"):
                search = adapters.parallel_search(FAILOVER, config, workers, CLAIM_ITERATIONS)
            return _ExhaustOutcome(search, params)

    else:

        def run_pass() -> _ExhaustOutcome:
            return _ExhaustOutcome(adapters.search(FAILOVER, config, tracer), params)

    return run_pass


# ---------------------------------------------------------------------------
# cover-random
# ---------------------------------------------------------------------------
class _CoverOutcome:
    def __init__(self, search: Dict[str, Any], params: Dict[str, Any]) -> None:
        self.search = search
        self.params = params

    def check(self) -> Tuple[int, int, List[str]]:
        bugs = self.search["bugs"]
        messages = [f"{bugs} bug(s) reported on the clean scenario"] if bugs else []
        if self.search["schedules"] != self.params["executions"]:
            return self.params["executions"], self.params["executions"], messages + [
                f"{self.search['schedules']} executions ran, {self.params['executions']} asked"
            ]
        return self.params["executions"], bugs, messages

    def exact(self) -> Dict[str, Any]:
        return {
            "schedules": self.search["schedules"],
            "distinct_states": self.search["distinct_states"],
            "digest": self.search["digest"],
        }

    def layers(self, wall: float, tracer: Optional[Tracer], layers: Dict[str, float]) -> None:
        layers["engine.schedules"] = self.search["schedules"]
        layers["engine.schedules_per_s"] = self.search["schedules"] / wall
        layers["fingerprint.distinct_states"] = self.search["distinct_states"]
        if tracer is not None:
            _traced_layers(tracer, layers)
            if self.params["fingerprints"]:
                layers["fingerprint.stable_hash_us"] = adapters.time_stable_hash(
                    STABLE_HASH_ROUNDS
                )


def _setup_cover(params, seed, tracer, layers) -> Callable[[], _CoverOutcome]:
    config = adapters.search_config(
        "random",
        params["max_steps"],
        iterations=params["executions"],
        seed=seed,
        fingerprints=params["fingerprints"],
    )
    return lambda: _CoverOutcome(adapters.search(FAILOVER_FIXED, config, tracer), params)


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------
class _ServeOutcome:
    def __init__(self, served: Dict[str, Any], params: Dict[str, Any]) -> None:
        self.served = served
        self.requests = params["clients"] * params["requests"]

    def check(self) -> Tuple[int, int, List[str]]:
        served = self.served
        messages = []
        if served["bug"] is not None:
            messages.append(f"monitor violation: {served['bug']}")
        if served["termination"] != "quiescence":
            messages.append(f"run ended by {served['termination']!r}, not quiescence")
        if messages:
            return self.requests, self.requests, messages
        unacked = self.requests - served["acked"]
        if unacked:
            messages.append(f"{unacked} request(s) never acknowledged")
        return self.requests, unacked, messages

    def exact(self) -> Dict[str, Any]:
        return {"acked": self.served["acked"]}

    def layers(self, wall: float, tracer: Optional[Tracer], layers: Dict[str, float]) -> None:
        layers["production.events"] = self.served["events"]
        layers["production.events_per_s"] = self.served["events"] / wall
        layers["production.active_machines"] = self.served["active_machines"]
        if tracer is not None:
            for phase in ("start", "join", "shutdown"):
                layers[f"production.{phase}_s"] = tracer.total_ns(f"production.{phase}") / 1e9
            layers["production.requests_per_s"] = self.requests / layers["production.join_s"]


def _setup_serve(params, seed, tracer, layers) -> Callable[[], _ServeOutcome]:
    return lambda: _ServeOutcome(
        adapters.serve(params["clients"], params["requests"], TICK_INTERVAL, tracer), params
    )


_KINDS = {
    "hunt": _setup_hunt,
    "exhaust": _setup_exhaust,
    "cover": _setup_cover,
    "serve": _setup_serve,
}
