#!/usr/bin/env python
"""Quickstart: model a tiny protocol, register it as a scenario, and hunt its
bug with a parallel strategy portfolio.

A client sends a request and waits for a response; the server forgets to
respond when a controlled nondeterministic "drop" happens.  A liveness monitor
catches the hang.  The scenario self-registers with ``@scenario``, so the same
harness is also reachable from the CLI once this file is imported:

    python -m repro run --import examples/quickstart.py \
        --scenario quickstart/dropped-response --workers 2
"""

from repro import (
    Event,
    Machine,
    Monitor,
    Portfolio,
    Receive,
    State,
    on_event,
    scenario,
)
from repro.core import replay_trace


class Request(Event):
    def __init__(self, sender):
        self.sender = sender


class Response(Event):
    pass


class Notify(Event):
    def __init__(self, kind):
        self.kind = kind


class Server(Machine):
    @on_event(Request)
    def handle(self, event):
        if self.random():  # a controlled nondeterministic "message drop"
            self.log("dropping the response")
            return
        self.send(event.sender, Response())


class Client(Machine):
    def on_start(self, server):
        self.notify_monitor(ResponseMonitor, Notify("request"))
        self.send(server, Request(self.id))
        yield Receive(Response)
        self.notify_monitor(ResponseMonitor, Notify("response"))


class ResponseMonitor(Monitor):
    """Hot while a request is outstanding."""

    class Idle(State, initial=True, name="idle"):
        pass

    class Waiting(State, hot=True, name="waiting"):
        pass

    @on_event(Notify)
    def observe(self, event):
        self.goto(ResponseMonitor.Waiting if event.kind == "request" else ResponseMonitor.Idle)


@scenario(
    "quickstart/dropped-response",
    tags=("quickstart", "liveness", "bug"),
    expected_bug="DroppedResponse",
    expected_bug_kind="liveness",
    max_steps=100,
)
def dropped_response_scenario():
    """Request/response protocol whose server may silently drop the reply."""

    def test_entry(runtime):
        runtime.register_monitor(ResponseMonitor)
        server = runtime.create_machine(Server)
        runtime.create_machine(Client, server)

    return test_entry


def main():
    # Fan the scenario out across two strategies on two worker processes.
    portfolio = Portfolio(
        "quickstart/dropped-response",
        strategies=["random", "pct"],
        iterations=100,
        num_workers=2,
        seed=0,
    )
    report = portfolio.run()
    print(report.summary())

    if report.bug_found:
        bug = report.first_bug
        winner = report.winning_result
        print("replaying the buggy schedule (by scenario name) ...")
        replayed = replay_trace(report.scenario, bug.trace, winner.unit.config(report.config))
        print(f"replayed bug: {replayed}")
        print("last log lines of the buggy execution:")
        for line in bug.log[-5:]:
            print(f"  {line}")

        # Reports round-trip to JSON; `python -m repro replay` consumes these.
        report.save("quickstart-report.json")
        print("report written to quickstart-report.json (replay with: "
              "python -m repro replay quickstart-report.json "
              "--import examples/quickstart.py)")


if __name__ == "__main__":
    main()
