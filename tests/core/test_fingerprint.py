"""Execution fingerprinting: stable hashing and the incremental invariant.

The load-bearing property is that the incrementally maintained global
fingerprint (updated in O(1) from the queue hooks plus one ``touch`` per
dispatched step) always equals the value recomputed from scratch by walking
every machine and monitor — checked here at *every scheduling point* of real
harness executions via a delegating strategy.
"""

import copy
import enum
import subprocess
import sys
from contextlib import contextmanager
from hashlib import blake2b

import pytest

from repro.analysis import independence_for_classes
from repro.analysis.extract import discover_classes
from repro.core import (
    CoverageTracker,
    Event,
    Machine,
    Receive,
    State,
    TestingConfig,
    TestingEngine,
    TestRuntime,
    on_event,
    run_test,
)
from repro.core import fingerprint
from repro.core.fingerprint import FingerprintTracker, stable_hash
from repro.core.ids import MachineId
from repro.core.registry import get_scenario, load_builtin_scenarios
from repro.core.strategy import DFSStrategy, RandomStrategy
from repro.examplesys.harness.scenarios import build_replication_test
from repro.vnext.harness.scenarios import build_failover_test

from .test_replay_cache import _scenario_names


# ---------------------------------------------------------------------------
# stable_hash
# ---------------------------------------------------------------------------
def test_stable_hash_is_deterministic_and_discriminating():
    value, exact = stable_hash((1, "a", 2.5, b"x", None, True))
    again, _ = stable_hash((1, "a", 2.5, b"x", None, True))
    assert value == again
    assert exact
    assert stable_hash((1, "a"))[0] != stable_hash(("a", 1))[0]
    assert stable_hash(1)[0] != stable_hash("1")[0]
    assert stable_hash(True)[0] != stable_hash(1)[0]
    assert stable_hash([1, 2])[0] != stable_hash([2, 1])[0]


def test_stable_hash_canonicalizes_unordered_containers():
    a = {"x": 1, "y": 2}
    b = dict([("y", 2), ("x", 1)])
    assert stable_hash(a)[0] == stable_hash(b)[0]
    assert stable_hash({3, 1, 2})[0] == stable_hash({2, 3, 1})[0]
    # mixed-type dict keys must not raise (sorted by encoded bytes)
    stable_hash({1: "a", "b": 2, None: 3})


def test_stable_hash_handles_cycles():
    cyclic = []
    cyclic.append(cyclic)
    value, exact = stable_hash(cyclic)
    other = []
    other.append(other)
    assert exact
    assert value == stable_hash(other)[0]


def test_stable_hash_machine_id_and_objects():
    assert (
        stable_hash(MachineId(1, "M"))[0]
        == stable_hash(MachineId(1, "M"))[0]
    )
    assert stable_hash(MachineId(1, "M"))[0] != stable_hash(MachineId(2, "M"))[0]

    class Payload:
        def __init__(self, x):
            self.x = x
            self._internal = object()  # underscore attrs are excluded

    assert stable_hash(Payload(1))[0] == stable_hash(Payload(1))[0]
    assert stable_hash(Payload(1))[0] != stable_hash(Payload(2))[0]


def test_stable_hash_flags_unencodable_values_inexact():
    value, exact = stable_hash(lambda: None)
    assert not exact
    # still deterministic: the marker encodes the type
    assert value == stable_hash(lambda: None)[0]
    _, exact = stable_hash({"handle": object()})
    assert not exact


def test_stable_hash_matches_across_interpreters():
    """No PYTHONHASHSEED dependence: a fresh process agrees bit-for-bit."""
    local = stable_hash(("probe", 42, frozenset({"a", "b"}), {"k": (1, 2)}))[0]
    script = (
        "from repro.core.fingerprint import stable_hash\n"
        "print(stable_hash(('probe', 42, frozenset({'a', 'b'}), {'k': (1, 2)}))[0])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env={"PYTHONPATH": "src", "PYTHONHASHSEED": "7"},
    )
    assert int(result.stdout.strip()) == local


# ---------------------------------------------------------------------------
# enum members and scalar subclasses (all hashed alike, "exactly", before)
# ---------------------------------------------------------------------------
class Color(enum.Enum):
    RED = 1
    BLUE = 2


class Shade(enum.Enum):
    RED = 1


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Tagged(str):
    """A str subclass whose instances carry a ``__dict__``."""


class Meters(int):
    __slots__ = ()


def _distinct_and_exact(values):
    hashes = [stable_hash(value) for value in values]
    assert all(exact for _, exact in hashes)
    assert len({value for value, _ in hashes}) == len(values), hashes


def test_stable_hash_tells_enum_members_apart():
    _distinct_and_exact([Color.RED, Color.BLUE, Shade.RED, Level.LOW, Level.HIGH, 1, "RED"])
    assert stable_hash(Color.RED) == stable_hash(Color["RED"])
    # the enum the repo's own scenarios keep in machine state
    from repro.migratingtable.migration import PartitionState

    _distinct_and_exact(list(PartitionState) + [PartitionState.USE_OLD.value])


def test_stable_hash_tells_scalar_subclass_values_apart():
    labelled = Tagged("a")
    labelled.unit = "m"
    other_label = Tagged("a")
    other_label.unit = "s"
    _distinct_and_exact(
        [Tagged("a"), Tagged("b"), labelled, other_label, "a", Meters(3), Meters(4), 3]
    )
    twin = Tagged("a")
    twin.unit = "m"
    assert stable_hash(labelled) == stable_hash(twin)

    class Celsius(float):
        pass

    class Blob(bytes):
        pass

    _distinct_and_exact([Celsius(1.5), Celsius(2.5), 1.5, Blob(b"x"), Blob(b"y"), b"x"])


# ---------------------------------------------------------------------------
# the memo: hits must be indistinguishable from encoding again
# ---------------------------------------------------------------------------
class _NoMemo:
    """Stands in for the memo: remembers nothing."""

    def get(self, key):
        return None

    def put(self, key, result):
        pass


@contextmanager
def memo_disabled():
    saved = fingerprint._MEMO
    fingerprint._MEMO = _NoMemo()
    try:
        yield
    finally:
        fingerprint._MEMO = saved


def encode_uncached(value):
    """``stable_hash`` as the encoder alone computes it, memo out of the way."""
    with memo_disabled():
        hasher = blake2b(digest_size=8)
        exact = fingerprint._feed(hasher, value, {})
        return int.from_bytes(hasher.digest(), "big"), exact


def memo_entries():
    return len(fingerprint._MEMO.young) + len(fingerprint._MEMO.old)


def test_memo_keeps_equal_comparing_values_apart():
    # True == 1 == 1.0 and 0.0 == -0.0 as dict keys; a MachineId compares by
    # value alone.  Each group is hashed back to back so that a key which
    # conflated two of them would serve the first one's digest for the second.
    groups = [
        [1, True, 1.0],
        [0, False, 0.0, -0.0],
        [(1, 2), (True, 2), (1.0, 2), [1, 2]],
        [{1: "x"}, {True: "x"}, {1.0: "x"}],
        [MachineId(1, "A"), MachineId(1, "B"), MachineId(1, "A", "n"), MachineId(1, "A", "m")],
        [{"owner": MachineId(1, "A")}, {"owner": MachineId(1, "B")}],
        ["1", b"1", 1],
        [Color.RED, Shade.RED, "RED"],
    ]
    for group in groups:
        fingerprint._MEMO.clear()
        for _ in range(2):  # cold, then warm
            for value in group:
                assert stable_hash(value) == encode_uncached(value), value
    # list and tuple share an encoding (and may share a key); the rest differ
    assert stable_hash((1, 2)) == stable_hash([1, 2])
    assert len({stable_hash(value)[0] for value in groups[0]}) == 3
    assert len({stable_hash(value)[0] for value in groups[4]}) == 4


def test_memo_is_bypassed_by_cycles_and_ancestor_references():
    cyclic = [1]
    cyclic.append(cyclic)
    self_dict = {"k": 1}
    self_dict["self"] = self_dict
    # ``inner`` reaches its ancestor ``outer``: inside ``outer`` it encodes as
    # a back-reference whose number depends on the depth it sits at.
    inner = []
    outer = {"a": {"b": inner}}
    inner.append(outer)
    nested = {"x": {"y": cyclic}, "z": cyclic}
    for value in (cyclic, self_dict, outer, inner, nested):
        fingerprint._MEMO.clear()
        for _ in range(2):
            assert stable_hash(value) == encode_uncached(value)


def test_memo_never_stores_inexact_or_oversized_values():
    fingerprint._MEMO.clear()
    assert not stable_hash(object())[1]
    assert not stable_hash(lambda: None)[1]
    assert memo_entries() == 0
    # a container with an unencodable member: its exact members may be kept,
    # the container and the member are not
    assert not stable_hash({"handle": object(), "n": 1})[1]
    assert not stable_hash({"handle": object(), "n": 1})[1]
    fingerprint._MEMO.clear()
    wide = tuple(range(10 * fingerprint._MAX_TOKENS))
    long_text = "x" * (10 * fingerprint._MAX_ATOM)
    huge = 1 << 4096
    for value in (wide, long_text, long_text.encode(), huge, [long_text], {"k": huge}):
        assert stable_hash(value) == encode_uncached(value)
        assert stable_hash(value) == encode_uncached(value)
    assert memo_entries() <= 1  # the short dict key "k"


def test_memo_is_bounded_and_survives_eviction():
    fingerprint._MEMO.clear()
    probe = {"id": MachineId(3, "M", "m"), "tags": frozenset({"a", "b"}), "n": (1, 2.5)}
    expected = encode_uncached(probe)
    assert stable_hash(probe) == expected
    for number in range(20 * fingerprint._MEMO_GENERATION):
        stable_hash(("filler", number))
        assert memo_entries() <= 2 * fingerprint._MEMO_GENERATION
    assert stable_hash(probe) == expected  # evicted, encoded again
    assert stable_hash(probe) == expected  # and served from the memo again


def test_memo_sees_mutation_after_hashing():
    box = {"items": [1, 2], "owner": MachineId(1, "A")}
    before = stable_hash(box)
    box["items"].append(3)
    after = stable_hash(box)
    assert after != before
    assert after == encode_uncached(box)
    box["items"].pop()
    assert stable_hash(box) == before


def test_public_attrs_hash_equals_hash_of_the_public_dict():
    cyclic = [1]
    cyclic.append(cyclic)
    attrs = {
        "_runtime": object(),
        "zeta": cyclic,
        "alpha": {"nested": cyclic},
        "_hidden": 1,
        "count": 7,
        "peer": MachineId(2, "M"),
    }
    public = {name: value for name, value in attrs.items() if not name.startswith("_")}
    assert fingerprint._hash_public_attrs(attrs) == stable_hash(public)
    assert fingerprint._hash_public_attrs(attrs) == encode_uncached(public)
    assert fingerprint._hash_public_attrs({"_only": object()}) == stable_hash({})
    attrs["handle"] = object()
    assert not fingerprint._hash_public_attrs(attrs)[1]


def test_monitor_component_propagates_state_exactness():
    class FakeMonitor:
        def __init__(self, state):
            self._current_state = state
            self.seen = 0

    class FakeRuntime:
        _machines = {}

        def __init__(self, monitor):
            self._monitors = {FakeMonitor: monitor}

    monitor = FakeMonitor("Idle")
    tracker = FingerprintTracker(FakeRuntime(monitor))
    tracker.register_monitor(monitor)
    assert tracker.current().exact
    monitor._current_state = object()  # no canonical encoding
    tracker.mark_monitor_dirty(monitor)
    assert not tracker.current().exact
    assert not tracker.recompute().exact
    monitor._current_state = "Idle"
    tracker.mark_monitor_dirty(monitor)
    assert tracker.current().exact


# ---------------------------------------------------------------------------
# incremental == from-scratch, at every scheduling point of real executions
# ---------------------------------------------------------------------------
class InvariantCheckingStrategy(RandomStrategy):
    """Random scheduling that cross-checks the tracker at every choice."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self._tracked_runtime = None
        self.checks = 0

    def attach_runtime(self, runtime):
        super().attach_runtime(runtime)
        self._tracked_runtime = runtime

    def next_machine(self, enabled, step):
        tracker = self._tracked_runtime._fingerprint
        incremental = tracker.current()
        # rebuilt by the encoder alone: a wrong memo entry must not be able
        # to give both sides the same wrong answer
        with memo_disabled():
            scratch = tracker.recompute()
        assert incremental.value == scratch.value, (
            f"incremental fingerprint diverged at step {step}"
        )
        assert incremental.exact == scratch.exact
        self.checks += 1
        return super().next_machine(enabled, step)


def _run_with_invariant(entry, iterations=5, max_steps=80, seed=11):
    config = TestingConfig(
        iterations=iterations,
        max_steps=max_steps,
        fingerprints=True,
        stop_at_first_bug=False,
        max_bugs=None,
    )
    strategy = InvariantCheckingStrategy(seed=seed)
    engine = TestingEngine(entry, config, strategy)
    report = engine.run()
    assert strategy.checks > 100, "invariant was barely exercised"
    return report


def test_incremental_fingerprint_matches_recompute_on_failover():
    _run_with_invariant(build_failover_test(fixed=False, num_nodes=2))


def test_incremental_fingerprint_matches_recompute_on_replication():
    # examplesys exercises defer/ignore disciplines, receive and timers —
    # the queue-surgery paths the rolling hashes must track exactly.
    _run_with_invariant(build_replication_test(num_nodes=3, num_requests=2))


def _encoded_slow(machine, prefix):
    """``(slow, attrs_exact)`` of a machine by the formula ``_refresh``
    memoises and diffs, from the encoder alone."""
    paused = machine._coroutine is not None or machine._pending_receive is not None
    status = (1 if machine._halted else 0) | (2 if paused else 0)
    with memo_disabled():
        stack_hash = stable_hash(machine._state_stack)[0]
        attrs_hash, attrs_exact = fingerprint._hash_public_attrs(machine.__dict__)
    return fingerprint._mix(stack_hash, attrs_hash, status, acc=prefix), attrs_exact


@pytest.mark.parametrize("name", _scenario_names(), ids=lambda name: name.replace("/", "-"))
def test_every_refresh_matches_the_encoder_on_every_registered_scenario(name, monkeypatch):
    """200 random steps of each scenario, every refresh of every record
    checked — whatever shapes of attribute the harnesses keep, a cold hit, a
    warm-up and a warm diff all leave what encoding everything again gives.

    The migratingtable machines share their tables and mutate the arguments
    they were started with, so a step of one moves what another's record (and
    ``recompute``'s prefixes) were derived from: there only the refreshed
    record is an oracle; everywhere else the rebuilt global value is held too.
    """
    import repro.core.runtime.testing as testing_runtime

    seen = {"refreshes": 0, "warm": 0}

    class CheckingTracker(FingerprintTracker):
        def _refresh(self, machine, record):
            seen["warm"] += record.layout is not None
            super()._refresh(machine, record)
            seen["refreshes"] += 1
            assert (record.slow, record.attrs_exact) == _encoded_slow(machine, record.prefix)

    monkeypatch.setattr(testing_runtime, "FingerprintTracker", CheckingTracker)
    config = TestingConfig(
        iterations=1, max_steps=200, fingerprints=True, stop_at_first_bug=False, max_bugs=None
    )
    shares_state = name.startswith("migratingtable/")
    strategy = (RandomStrategy if shares_state else InvariantCheckingStrategy)(seed=11)
    TestingEngine(get_scenario(name).build(), config, strategy).run()
    assert seen["refreshes"] > 5 and seen["warm"] > 0
    assert shares_state or strategy.checks > 5


_SEARCH_ENTRIES = {
    "failover": lambda: build_failover_test(fixed=False, num_nodes=2),
    "replication": lambda: build_replication_test(num_nodes=3, num_requests=2),
}


@pytest.mark.parametrize("strategy", ["dfs", "dpor-lite"])
@pytest.mark.parametrize("system", _SEARCH_ENTRIES)
def test_incremental_fingerprint_matches_recompute_under_stateful_search(
    system, strategy, monkeypatch
):
    """Every observation a stateful search or its runtime makes — the first
    after a build and the first after a restore included — equals the value
    rebuilt from scratch."""
    import repro.core.runtime.testing as testing_runtime

    checks = {"all": 0, "first after build": 0, "first after restore": 0}

    class CheckingTracker(FingerprintTracker):
        checked = False

        def current(self):
            incremental = super().current()
            with memo_disabled():
                scratch = self.recompute()  # a plain tracker: no recursion
            assert incremental == scratch
            checks["all"] += 1
            if not self.checked:
                self.checked = True
                assert self.builds + self.restores == 1
                checks["first after build"] += self.builds
                checks["first after restore"] += self.restores
            return incremental

    monkeypatch.setattr(testing_runtime, "FingerprintTracker", CheckingTracker)
    build = _SEARCH_ENTRIES[system]
    config = TestingConfig(
        iterations=250,
        max_steps=7,
        strategy=strategy,
        stateful=True,
        stop_at_first_bug=False,
        max_bugs=None,
        independence=independence_for_classes(discover_classes(build)),
    )
    TestingEngine(build(), config).run()
    assert checks["all"] > 250, "invariant was barely exercised"
    assert checks["first after build"] > 0
    assert checks["first after restore"] > 100


def test_hooks_before_the_first_observation_change_nothing():
    """A tracker nobody looked at for 200 steps answers like one that was
    built from the empty system and maintained through every hook."""

    def run(eager):
        strategy = RandomStrategy(seed=3)
        strategy.prepare_iteration(0)
        runtime = TestRuntime(strategy, TestingConfig(max_steps=200, fingerprints=True))
        tracker = runtime._fingerprint
        if eager:
            tracker.current()  # builds now: every hook from here on is live
        runtime.run(build_failover_test(fixed=False, num_nodes=2))
        assert runtime.step_count == 200
        return tracker

    eager, lazy = run(eager=True), run(eager=False)
    assert lazy.builds == 0 and not lazy._records
    assert lazy.current() == eager.current()
    assert lazy.builds == eager.builds == 1
    with memo_disabled():
        assert lazy.current() == lazy.recompute()


class Ping(Event):
    def __init__(self, number):
        self.number = number


class Pong(Event):
    pass


class Stop(Event):
    pass


class Picker(Machine):
    """Receives out of arrival order (``on_inbox_remove``) and halts with
    events still queued (``on_halt_clear``)."""

    def on_start(self, count):
        self.picked = []
        echoes = [self.create(Echo, self.id, name=f"echo-{n}") for n in range(count)]
        for number, echo in enumerate(echoes):
            self.send(echo, Ping(number))
        for _ in echoes:
            # every Pong sits behind the Pings its echo sent first
            yield Receive(Pong)
            self.picked.append("pong")
        ping = yield Receive(Ping, predicate=lambda event: event.number == 1)
        self.picked.append(ping.number)
        self.halt()


class Echo(Machine):
    def on_start(self, picker):
        self.picker = picker

    @on_event(Ping)
    def on_ping(self, event):
        self.send(self.picker, Ping(event.number + 10))
        self.send(self.picker, Ping(event.number))
        self.send(self.picker, Pong())
        self.raise_event(Stop())

    @on_event(Stop)
    def on_stop(self, event):
        self.halt()


def _picker_entry(runtime):
    runtime.create_machine(Picker, 3, name="picker")


def test_incremental_fingerprint_matches_recompute_across_removals_and_halts():
    calls = {"on_inbox_remove": 0, "on_halt_clear": 0, "on_raise": 0}

    class CountingTracker(FingerprintTracker):
        def on_inbox_remove(self, machine, index):
            calls["on_inbox_remove"] += 1
            super().on_inbox_remove(machine, index)

        def on_halt_clear(self, machine):
            calls["on_halt_clear"] += 1
            super().on_halt_clear(machine)

        def on_raise(self, machine, event):
            calls["on_raise"] += 1
            super().on_raise(machine, event)

    import repro.core.runtime.testing as testing_runtime

    saved = testing_runtime.FingerprintTracker
    testing_runtime.FingerprintTracker = CountingTracker
    try:
        _run_with_invariant(_picker_entry, iterations=25, max_steps=60)
    finally:
        testing_runtime.FingerprintTracker = saved
    assert min(calls.values()) > 0, calls


def test_snapshot_of_a_blocked_machine_restores_as_inexact():
    strategy = RandomStrategy(seed=1)
    strategy.prepare_iteration(0)
    runtime = TestRuntime(strategy, TestingConfig(max_steps=1, fingerprints=True))
    runtime.run(_picker_entry)  # one step: the picker blocks in Receive(Pong)
    tracker = runtime._fingerprint
    before = tracker.current()
    assert not before.exact
    snapshot = tracker.snapshot()

    twin = FingerprintTracker(runtime)
    twin.restore(snapshot)
    assert (twin.builds, twin.restores) == (0, 1)
    assert twin.current() == before
    # a restored tracker owns its records: what it does next stays out of
    # the snapshot it came from
    picker = next(iter(runtime._machines.values()))
    twin.on_enqueue(picker, Ping(99))
    assert twin.current() != before
    again = FingerprintTracker(runtime)
    again.restore(snapshot)
    assert again.current() == before


def test_stateful_search_never_prunes_on_an_inexact_state_restored_or_not():
    inexact = []

    class Watching(DFSStrategy):
        def _observe_state(self, step):
            observed = self._tracker.current()
            state = super()._observe_state(step)
            if not observed.exact:
                assert state is None  # no state, so no lookup and no record
                inexact.append((observed.value, self._tracker.restores))
            return state

    config = TestingConfig(
        iterations=400, max_steps=8, strategy="dfs", stateful=True,
        stop_at_first_bug=False, max_bugs=None,
    )
    strategy = Watching.from_config(config)
    TestingEngine(_picker_entry, config, strategy).run()
    assert len(inexact) > 50
    assert any(restores for _, restores in inexact), "no inexact state after a restore"
    # the picker stays blocked from its first step on: nothing gets pruned,
    # and whatever was recorded is none of those states
    assert strategy.pruned_schedules == 0
    assert not {value for value, _ in inexact} & set(strategy._visited)


def test_fingerprints_flow_into_coverage_and_report():
    config = TestingConfig(iterations=4, max_steps=60, fingerprints=True, seed=2)
    report = run_test(build_replication_test(), config)
    assert len(report.coverage.fingerprints) > 0
    assert report.coverage.summary()["fingerprints"] == len(report.coverage.fingerprints)
    # fingerprinting is strictly opt-in: the plain path records nothing
    plain = run_test(build_replication_test(), TestingConfig(iterations=2, max_steps=60))
    assert plain.coverage.fingerprints == set()


def test_tracker_wants_fingerprints_opt_in():
    """The runtime builds a tracker iff config or strategy asks for one."""
    from repro.core.runtime import TestRuntime

    entry = build_replication_test()
    strategy = RandomStrategy(seed=0)
    strategy.prepare_iteration(0)
    runtime = TestRuntime(strategy, TestingConfig(max_steps=10))
    assert runtime.execution_fingerprint() is None
    runtime.run(entry)

    strategy = RandomStrategy(seed=0)
    strategy.prepare_iteration(0)
    runtime = TestRuntime(strategy, TestingConfig(max_steps=10, fingerprints=True))
    assert isinstance(runtime._fingerprint, FingerprintTracker)
    runtime.run(entry)
    observed = runtime.execution_fingerprint()
    assert observed is not None
    assert observed.value == runtime._fingerprint.recompute().value


# ---------------------------------------------------------------------------
# warm records: a refresh that diffs the attributes against the last one must
# be indistinguishable from a cold tracker encoding all of them again
# ---------------------------------------------------------------------------
class Helper:
    """A user object a machine keeps in a public attribute."""

    def __init__(self):
        self.items = [1]
        self.level = 0


class Scripted(Machine):
    class Idle(State, initial=True):
        pass

    class Busy(State):
        pass

    class Nested(State):
        pass

    def on_start(self):
        self.count = 1000  # above the small-int cache: an equal int is another object
        self.flag = True
        self.ratio = 0.0
        self.items = [1, [2, 3]]
        self.table = {"a": [1]}
        self.helper = Helper()
        self.label = "label"
        self.peer = MachineId(7, "Peer", "p")
        self._hidden = 0


def _warm_machine(machine_cls=Scripted):
    """``(tracker, machine)`` of a user-built runtime after a quiescent run,
    the machine's record warm."""
    fingerprint._MEMO.clear()  # so that the build misses, which is what warms a record
    strategy = RandomStrategy(seed=0)
    strategy.prepare_iteration(0)
    runtime = TestRuntime(strategy, TestingConfig(max_steps=10, fingerprints=True))
    assert runtime.run(lambda rt: rt.create_machine(machine_cls)) is None
    (machine,) = runtime._machines.values()
    tracker = runtime._fingerprint
    tracker.current()
    assert tracker._records[machine.id.value].layout is not None
    return tracker, machine


def _touch_and_check(tracker, machine):
    """What the runtime does after a step of ``machine``, then warm against cold."""
    tracker.touch(machine)
    observed = tracker.current()
    with memo_disabled():
        assert observed == tracker.recompute()
    return observed


def _set(name, value):
    return lambda machine: setattr(machine, name, value)


CHANGED, SAME, ORIGINAL = "differs from the last", "equals the last", "equals the first"

#: name -> [(mutation of the machine, what the fingerprint must do)]
WARM_SCRIPTS = {
    "nested list mutated in place": [
        (lambda m: m.items[1].append(4), CHANGED),
        (lambda m: m.items[1].pop(), ORIGINAL),
    ],
    "nested dict mutated in place": [
        (lambda m: m.table["a"].append(2), CHANGED),
        (lambda m: m.table.update(b=None), CHANGED),
        (lambda m: (m.table.pop("b"), m.table["a"].pop()), ORIGINAL),
    ],
    "helper object mutated in place": [
        (lambda m: m.helper.items.append(2), CHANGED),
        (lambda m: setattr(m.helper, "level", 1), CHANGED),
        (lambda m: setattr(m.helper, "_cache", [1]), SAME),
        (lambda m: setattr(m.helper, "extra", None), CHANGED),
    ],
    "rebound to an equal value that is another object": [
        (lambda m: setattr(m, "items", copy.deepcopy(m.items)), SAME),
        (lambda m: setattr(m, "helper", copy.deepcopy(m.helper)), SAME),
        (_set("count", int("1000")), SAME),
        (_set("label", "".join(["la", "bel"])), SAME),
        (_set("peer", MachineId(7, "Peer", "p")), SAME),
        (_set("peer", MachineId(7, "Other", "p")), CHANGED),  # == compares the value alone
    ],
    "rebound to a value that is equal as a dict key and encodes differently": [
        (_set("flag", 1), CHANGED),
        (_set("flag", 1.0), CHANGED),
        (_set("flag", True), ORIGINAL),
        (_set("ratio", -0.0), CHANGED),
    ],
    "scalar subclass that carries attributes, mutated in place": [
        (_set("label", Tagged("label")), CHANGED),  # never an atom: the exact class decides
        (lambda m: setattr(m.label, "unit", "m"), CHANGED),
        (lambda m: setattr(m.label, "unit", "s"), CHANGED),
        (_set("color", Color.RED), CHANGED),
        (_set("color", Shade.RED), CHANGED),
    ],
    "private names": [
        (lambda m: setattr(m, "_hidden", m._hidden + 1), SAME),
        (_set("_scratch", [1]), SAME),  # another layout, the same public names
        (lambda m: m._scratch.append(2), SAME),
        (lambda m: delattr(m, "_scratch"), SAME),
    ],
    "attribute added and deleted": [
        (_set("extra", 1), CHANGED),
        (lambda m: delattr(m, "extra"), ORIGINAL),  # a memo hit under the first layout ...
        (_set("extra", 1), CHANGED),  # ... must not leave the second one's cache behind
        (_set("extra", 2), CHANGED),
        (lambda m: delattr(m, "extra"), ORIGINAL),
        (lambda m: delattr(m, "ratio"), CHANGED),
    ],
    "values without a key": [
        (_set("big", list(range(100))), CHANGED),  # over _MAX_TOKENS
        (lambda m: m.big.__setitem__(70, -1), CHANGED),
        (lambda m: None, SAME),
        (_set("label", "x" * 100), CHANGED),  # over _MAX_ATOM
        (_set("label", "x" * 99 + "y"), CHANGED),
        (_set("count", 1 << 70), CHANGED),  # over _MAX_INT
        (_set("count", (1 << 70) + 1), CHANGED),
        (lambda m: m.items.append(m.items), CHANGED),  # cyclic
        (lambda m: m.items.__setitem__(0, 9), CHANGED),
        (_set("count", 5), CHANGED),
    ],
    "state stack": [
        (lambda m: m.push_state("Busy"), CHANGED),
        (lambda m: None, SAME),
        (lambda m: m.goto(Scripted.Nested), CHANGED),
        (lambda m: m.pop_state(), ORIGINAL),
    ],
    "halt": [
        (_set("count", 1001), CHANGED),
        (lambda m: m._runtime._halt_machine(m), CHANGED),
        (lambda m: None, SAME),
    ],
}


@pytest.mark.parametrize("script", WARM_SCRIPTS)
def test_warm_refresh_matches_a_cold_tracker_after(script):
    tracker, machine = _warm_machine()
    first = last = _touch_and_check(tracker, machine)
    assert first.exact
    for number, (mutate, expected) in enumerate(WARM_SCRIPTS[script]):
        mutate(machine)
        observed = _touch_and_check(tracker, machine)
        assert observed.exact
        assert {
            CHANGED: observed not in (last, first),
            SAME: observed == last,
            ORIGINAL: observed == first != last,
        }[expected], f"step {number}: fingerprint {expected!r} expected"
        last = observed
    assert tracker.refresh_unchanged >= 1  # the first check above, at the least


def test_warm_refresh_follows_an_inexact_attribute():
    tracker, machine = _warm_machine()
    exact = _touch_and_check(tracker, machine)
    machine.handle = object()  # no canonical encoding: a type-only marker
    inexact = _touch_and_check(tracker, machine)
    assert exact.exact and not inexact.exact
    machine.handle = object()  # another object, the same marker
    assert _touch_and_check(tracker, machine) == inexact
    machine.items.append(5)
    changed = _touch_and_check(tracker, machine)
    assert changed.value != inexact.value and not changed.exact
    machine.handle = [object()]
    assert not _touch_and_check(tracker, machine).exact
    machine.handle[0] = None  # exact again, by a mutation in place
    assert _touch_and_check(tracker, machine).exact
    del machine.handle
    machine.items.pop()
    assert _touch_and_check(tracker, machine) == exact


def test_warm_record_keeps_no_user_object_alive():
    """Only immutable atoms are remembered by identity; of everything else
    the record holds a key of primitives and classes, and a digest."""
    tracker, machine = _warm_machine()
    _touch_and_check(tracker, machine)
    (record,) = tracker._records.values()
    assert {type(atom) for atom in record.atoms} == {int, bool, float, str, MachineId, object}
    tokens = {type(token) for key in record.keys for token in key}
    assert tokens <= {int, bool, float, str, type, type(None), fingerprint._Layout}
    assert record.copy().layout is None  # a snapshot's twin is cold


class Pauser(Machine):
    def on_start(self):
        self.stage = 0
        yield  # paused at a scheduling point ...
        yield  # ... and again, with nothing public changed in between
        self.stage = 1
        yield Receive(Pong)  # paused in a receive the inbox can satisfy
        self.stage = 2


def test_warm_record_follows_a_handler_that_pauses():
    def entry(runtime):
        runtime.send_event(runtime.create_machine(Pauser), Pong())

    fingerprint._MEMO.clear()
    strategy = InvariantCheckingStrategy(seed=0)
    strategy.prepare_iteration(0)
    # with a coverage tracker, every scheduling point is observed
    runtime = TestRuntime(
        strategy, TestingConfig(max_steps=20, fingerprints=True), CoverageTracker()
    )
    assert runtime.run(entry) is None and runtime.termination_reason == "quiescence"
    tracker = runtime._fingerprint
    assert strategy.checks == runtime.step_count == 4
    # the build and the step that added ``stage`` were cold; the second yield
    # changed nothing; the receive and the return each changed something
    assert (tracker.refreshes, tracker.refresh_unchanged) == (5, 1)
    with memo_disabled():
        assert tracker.current() == tracker.recompute()
    assert tracker.current().exact


def test_refresh_counters_on_the_cover_random_shape():
    """One long random execution with every step observed: nearly every state
    is new, so a record that fell back to cold on every step would re-digest
    all 4-7 attributes each time and never find a refresh unchanged."""
    load_builtin_scenarios()
    testcase = get_scenario("vnext/failover-fixed")
    config = testcase.default_config(strategy="random", seed=5, max_steps=1500, fingerprints=True)
    strategy = RandomStrategy(seed=5)
    strategy.prepare_iteration(0)
    runtime = TestRuntime(strategy, config, CoverageTracker())
    assert runtime.run(testcase.build()) is None and runtime.step_count == 1500
    tracker = runtime._fingerprint
    assert tracker.refreshes >= 1500
    assert tracker.attrs_rehashed / tracker.refreshes <= 1.2
    assert tracker.refresh_unchanged / tracker.refreshes >= 0.2
    assert len(runtime.coverage.fingerprints) > 1400
