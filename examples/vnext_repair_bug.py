#!/usr/bin/env python
"""Case study 1: find the Azure Storage vNext extent-repair liveness bug (§3.6)
with a two-strategy portfolio, replay it, and validate the fix's clean run."""

from repro import Portfolio, TestingConfig, run_scenario
from repro.core import replay_trace


def main():
    portfolio = Portfolio(
        "vnext/extent-node-liveness",
        strategies=["random", "pct"],
        iterations=200,
        num_workers=2,
        seed=11,
    )
    report = portfolio.run()
    print("[buggy Extent Manager]", report.summary())
    if report.bug_found:
        bug = report.first_bug
        interesting = [
            line
            for line in bug.log
            if "expired" in line or "scheduled repairs" in line or "failing" in line or "RepairMonitor ->" in line
        ]
        print("key events of the buggy schedule:")
        for line in interesting[:12]:
            print(f"  {line}")
        winner = report.winning_result
        print("replay:", replay_trace(report.scenario, bug.trace, winner.unit.config(report.config)))

    fixed_report = run_scenario(
        "vnext/failover-fixed", TestingConfig(iterations=200, max_steps=3000, seed=11)
    )
    print("[fixed Extent Manager]", fixed_report.summary())


if __name__ == "__main__":
    main()
