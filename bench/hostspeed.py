"""A gauge of how fast the host runs Python right now.

The hosts this benchmark runs on change speed under it (README, *Why times
are scaled by a gauge*), so every repetition reads the gauge just before and
just after its timed pass and reports its times in *nominal* seconds: what
they would have been on a host that runs the kernel in ``NOMINAL_KERNEL_S``.
The kernel is a fixed piece of work of the kind the program under test does:
small tuples and strings built, a dict probed and grown, bytes fed to
blake2b.  It imports nothing from the program, so no change to the program
moves it.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time

#: one kernel call on the reference box (2 vCPUs, CPython 3.11) when nothing
#: else slows it down; times are scaled to this, so there they read as real
#: seconds.  Part of the benchmark's definition: changing it rescales every
#: time metric.
NOMINAL_KERNEL_S = 200e-6


def kernel() -> None:
    table = {}
    digest = hashlib.blake2b(digest_size=8)
    for i in range(300):
        key = (i % 37, str(i))
        table[key] = table.get(key, 0) + i
        digest.update(repr(key).encode())
    digest.digest()


def _read_here(seconds: float) -> float:
    calls = []
    started = last = time.perf_counter()
    while last - started < seconds:
        kernel()
        now = time.perf_counter()
        calls.append(now - last)
        last = now
    # The mean, stalls of a few milliseconds included: the pass meets those
    # too.  But a process that did not run at all (seen: 1 s within a 50-ms
    # reading) says nothing about speed.
    limit = 20 * statistics.median(calls)
    return statistics.fmean(call for call in calls if call <= limit)


def read(seconds: float) -> float:
    """Run the kernel back to back for ``seconds``: seconds per call.

    The host's CPUs change speed independently of each other, so the reading
    is taken on each CPU this process may run on, in turn, and averaged:
    ``run.py`` confines a single-process repetition to one CPU, and
    ``exhaust-parallel`` keeps them all.
    """
    cpus = sorted(os.sched_getaffinity(0))
    try:
        readings = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            readings.append(_read_here(seconds / len(cpus)))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(readings)
