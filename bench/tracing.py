"""Spans and counters recorded from the benchmark's side of each layer boundary.

Nothing here imports the program under test: the wrappers delegate to
whatever strategy / test entry ``adapters.py`` hands them, so every layer is
timed from outside, through its public calls.

Span tree of one traced pass::

    setup                      interpreter start -> first timed call
      setup.import / setup.load_scenarios / setup.build / analysis.*
    pass                       the timed region of the workload
      engine.run               one TestingEngine.run() (one per hunt)
        strategy.prepare       prepare_iteration(i)   (DFS backtracking lives here)
        execution              attach_runtime -> next prepare_iteration
          kernel.entry         test_entry(runtime)
      production.start / production.join / production.shutdown
      parallel.run

Scheduling choices are far too many to keep as spans (one per step), so they
are aggregated as counters on their ``execution`` span: ``choices``,
``choice_ns`` and ``steps``.  An execution's *self time* is its duration
minus ``choice_ns`` and minus its ``kernel.entry`` child: what the runtime
kernel spent dispatching.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

clock = time.perf_counter_ns


class Tracer:
    """In-memory span store; written out once, when the traced pass is over."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    def add(
        self,
        name: str,
        start_ns: int,
        end_ns: int,
        parent: Optional[int],
        execution: Optional[int] = None,
        **counters: int,
    ) -> int:
        span_id = len(self.spans)
        row: Dict[str, Any] = {
            "id": span_id,
            "name": name,
            "start_ns": start_ns,
            "end_ns": end_ns,
            "parent": parent,
            "execution": execution,
        }
        row.update(counters)
        self.spans.append(row)
        return span_id

    @property
    def current(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, start_ns: Optional[int] = None) -> Iterator[int]:
        """Open a span whose children are the spans added while it is open."""
        span_id = self.add(name, clock() if start_ns is None else start_ns, 0, self.current)
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self._stack.pop()
            self.spans[span_id]["end_ns"] = clock()

    # ------------------------------------------------------------------
    def total_ns(self, name: str) -> int:
        return sum(s["end_ns"] - s["start_ns"] for s in self.spans if s["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def counter(self, name: str, key: str) -> int:
        return sum(s.get(key, 0) for s in self.spans if s["name"] == name)

    def execution_self_ns(self) -> int:
        """Sum over executions of duration minus strategy and entry time."""
        return (
            self.total_ns("execution")
            - self.counter("execution", "choice_ns")
            - self.total_ns("kernel.entry")
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"clock": "perf_counter_ns", "spans": self.spans}, handle)
            handle.write("\n")


class StrategyProxy:
    """Delegating scheduling strategy that times every call the engine and
    the runtime make into the real one, and marks execution boundaries.

    The engine calls ``prepare_iteration`` before each execution and the
    runtime calls ``attach_runtime`` from its constructor, so an execution
    spans ``attach_runtime`` to the next ``prepare_iteration`` (or
    :meth:`finish`).  The proxy changes no decision: schedules, traces and
    fingerprints are those of the wrapped strategy.
    """

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self._run_span = tracer.current
        self._iteration = 0
        self._runtime: Any = None
        self._exec_start = 0
        self._choices = 0
        self._choice_ns = 0
        self._entry: Optional[tuple] = None

    def __getattr__(self, name: str) -> Any:
        # name / exhausted / wants_fingerprints / supports_claims ...
        return getattr(self._inner, name)

    def prepare_iteration(self, iteration: int) -> None:
        start = clock()
        self._close_execution(start)
        self._inner.prepare_iteration(iteration)
        self._tracer.add("strategy.prepare", start, clock(), self._run_span, iteration)
        self._iteration = iteration

    def attach_runtime(self, runtime: Any) -> None:
        self._runtime = runtime
        self._choices = 0
        self._choice_ns = 0
        self._entry = None
        self._exec_start = clock()
        self._inner.attach_runtime(runtime)

    def next_machine(self, enabled: Any, step: int) -> Any:
        start = clock()
        chosen = self._inner.next_machine(enabled, step)
        self._choice_ns += clock() - start
        self._choices += 1
        return chosen

    def next_boolean(self, requester: Any, step: int) -> bool:
        start = clock()
        value = self._inner.next_boolean(requester, step)
        self._choice_ns += clock() - start
        self._choices += 1
        return value

    def next_integer(self, requester: Any, max_value: int, step: int) -> int:
        start = clock()
        value = self._inner.next_integer(requester, max_value, step)
        self._choice_ns += clock() - start
        self._choices += 1
        return value

    def entry_done(self, start_ns: int, end_ns: int) -> None:
        self._entry = (start_ns, end_ns)

    def finish(self) -> None:
        """Close the last execution; call once ``engine.run()`` has returned."""
        self._close_execution(clock())

    def _close_execution(self, now: int) -> None:
        runtime = self._runtime
        if runtime is None:
            return
        self._runtime = None
        span_id = self._tracer.add(
            "execution",
            self._exec_start,
            now,
            self._run_span,
            self._iteration,
            steps=runtime.step_count,
            choices=self._choices,
            choice_ns=self._choice_ns,
        )
        if self._entry is not None:
            self._tracer.add("kernel.entry", *self._entry, span_id, self._iteration)


def wrap_entry(entry: Callable[[Any], None], proxy: StrategyProxy) -> Callable[[Any], None]:
    """``test_entry`` with a ``kernel.entry`` span around each call."""

    def traced_entry(runtime: Any) -> None:
        start = clock()
        try:
            entry(runtime)
        finally:
            proxy.entry_done(start, clock())

    return traced_entry
