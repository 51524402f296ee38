"""Property-based tests (hypothesis) for core invariants."""

from collections import deque

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import fingerprint
from repro.core import (
    Event,
    Machine,
    ScheduleTrace,
    TestingConfig,
    TestingEngine,
    get_scenario,
    on_event,
)
from repro.core.strategy.pct_strategy import PCTStrategy
from repro.core.strategy.random_strategy import RandomStrategy
from repro.core.ids import MachineId

from .test_fingerprint import (
    Color,
    Level,
    _picker_entry,
    _run_with_invariant,
    _touch_and_check,
    _warm_machine,
    encode_uncached,
)


class Work(Event):
    def __init__(self, remaining):
        self.remaining = remaining


class Worker(Machine):
    @on_event(Work)
    def work(self, event):
        if event.remaining > 0:
            self.send(self.id, Work(event.remaining - 1))


def chain_test(runtime):
    worker = runtime.create_machine(Worker)
    runtime.send_event(worker, Work(5))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_same_seed_same_trace(seed):
    """Determinism: identical configuration => identical first-execution trace."""
    def run_once():
        engine = TestingEngine(
            chain_test, TestingConfig(iterations=1, max_steps=100, seed=seed)
        )
        engine.strategy.prepare_iteration(0)
        from repro.core import TestRuntime

        runtime = TestRuntime(engine.strategy, engine.config)
        runtime.run(chain_test)
        return [ (s.kind, s.value) for s in runtime.trace ]

    assert run_once() == run_once()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1000),
    num_machines=st.integers(min_value=1, max_value=8),
    steps=st.integers(min_value=1, max_value=50),
)
def test_random_strategy_always_picks_enabled_machine(seed, num_machines, steps):
    strategy = RandomStrategy(seed)
    strategy.prepare_iteration(0)
    enabled = [MachineId(i, f"M{i}") for i in range(num_machines)]
    for step in range(steps):
        assert strategy.next_machine(enabled, step) in enabled


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1000),
    num_machines=st.integers(min_value=1, max_value=8),
    switches=st.integers(min_value=0, max_value=5),
)
def test_pct_strategy_always_picks_enabled_machine(seed, num_machines, switches):
    strategy = PCTStrategy(seed, priority_switches=switches, expected_length=50)
    strategy.prepare_iteration(0)
    enabled = [MachineId(i, f"M{i}") for i in range(num_machines)]
    for step in range(50):
        assert strategy.next_machine(enabled, step) in enabled


@settings(max_examples=25, deadline=None)
@given(
    bools=st.lists(st.booleans(), max_size=10),
    ints=st.lists(st.integers(min_value=0, max_value=100), max_size=10),
)
def test_trace_json_roundtrip(bools, ints):
    trace = ScheduleTrace()
    for value in bools:
        trace.add_boolean_choice(value, "m")
    for value in ints:
        trace.add_integer_choice(value, "m")
    assert ScheduleTrace.from_json(trace.to_json()).steps == trace.steps


# ---------------------------------------------------------------------------
# shrinking invariants
# ---------------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=200))
def test_shrunk_trace_replays_same_bug_and_is_never_longer(seed):
    """For randomly found examplesys bugs: same bug class, never longer."""
    testcase = get_scenario("examplesys/safety-bug")
    config = testcase.default_config(
        seed=seed, strategy="random", iterations=60, shrink_max_replays=120
    )
    engine = TestingEngine(testcase.build(), config)
    report = engine.run()
    assume(report.bug_found)
    bug = report.first_bug
    result = engine.shrink_bug(bug)
    assert len(result.trace.steps) <= len(bug.trace.steps)
    assert result.bug.kind == bug.kind
    # the shrunk trace is exact: strict replay reproduces the same bug class
    replayed = engine.replay(result.trace)
    assert replayed is not None
    assert replayed.kind == bug.kind


@pytest.mark.parametrize(
    "scenario_name, strategy, seed, iterations",
    [
        ("examplesys/safety-bug", "random", 0, 100),
        ("vnext/extent-node-liveness", "pct", 0, 40),
    ],
)
def test_shrunk_scenario_bugs_keep_their_bug_class(scenario_name, strategy, seed, iterations):
    """Seeded runs across the examplesys and vnext case studies."""
    testcase = get_scenario(scenario_name)
    config = testcase.default_config(
        seed=seed, strategy=strategy, iterations=iterations, shrink_max_replays=40
    )
    engine = TestingEngine(testcase.build(), config)
    report = engine.run()
    assert report.bug_found
    bug = report.first_bug
    result = engine.shrink_bug(bug)
    assert len(result.trace.steps) <= len(bug.trace.steps)
    assert result.bug.kind == bug.kind == testcase.expected_bug_kind
    replayed = engine.replay(result.trace)
    assert replayed is not None and replayed.kind == bug.kind


# ---------------------------------------------------------------------------
# fingerprint memo: a hit is indistinguishable from encoding again
# ---------------------------------------------------------------------------
class Payload:
    """A structured object: class identity plus public attributes."""

    def __init__(self, attrs):
        self.__dict__.update(attrs)


_machine_ids = st.builds(
    MachineId, st.integers(0, 2), st.sampled_from(["A", "B"]), st.sampled_from(["", "n"])
)
# values that compare equal and encode differently sit next to each other
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1, 2),
    st.integers(),
    st.sampled_from([0.0, -0.0, 1.0, 2.0]),
    st.floats(),
    st.text(max_size=3),
    st.binary(max_size=3),
    _machine_ids,
    st.sampled_from([Color.RED, Color.BLUE, Level.LOW, Level.HIGH]),
    st.builds(object),  # no canonical encoding: inexact
)
_hashables = st.recursive(
    _leaves,
    lambda inner: st.one_of(st.tuples(inner, inner), st.frozensets(inner, max_size=3)),
    max_leaves=4,
)
_values = st.recursive(
    _hashables,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.builds(deque, st.lists(inner, max_size=3)),
        st.sets(_hashables, max_size=3),
        st.dictionaries(_hashables, inner, max_size=3),
        st.builds(Payload, st.dictionaries(st.sampled_from(["a", "b", "_p"]), inner, max_size=3)),
    ),
    max_leaves=12,
)


def _mutable_nodes(value, found, public_only=False):
    """The lists, deques, dicts and payloads of a (still acyclic) value;
    with ``public_only``, those the encoding reads: it skips every attribute
    whose name starts with an underscore, and all that hangs below it."""
    if isinstance(value, (list, deque, tuple)):
        children = list(value)
    elif isinstance(value, dict):
        children = list(value.values())
    elif isinstance(value, Payload):
        children = [
            child
            for name, child in vars(value).items()
            if not (public_only and name.startswith("_"))
        ]
    else:
        return found
    if not isinstance(value, tuple):
        found.append(value)
    for child in children:
        _mutable_nodes(child, found, public_only)
    return found


def _twin(value):
    """A copy in which every leaf that has one is swapped for a value that
    compares equal to it (as a dict key) and encodes differently."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int) and not isinstance(value, Level):
        return float(value) if abs(value) < 2**53 else value
    if isinstance(value, float):
        return -value if value == 0 else value
    if isinstance(value, MachineId):
        return MachineId(value.value, "A" if value.type_name == "B" else "B", value.name)
    if isinstance(value, (list, tuple, deque, set, frozenset)):
        return type(value)(_twin(item) for item in value)
    if isinstance(value, dict):
        return {_twin(key): _twin(item) for key, item in value.items()}
    if isinstance(value, Payload):
        return Payload(_twin(vars(value)))
    return value


def _attach(node, item):
    if isinstance(node, (list, deque)):
        node.append(item)
    elif isinstance(node, dict):
        node["link"] = item
    else:
        node.link = item


def _assert_memo_transparent(value):
    expected = encode_uncached(value)
    assert fingerprint.stable_hash(value) == expected  # whatever the memo holds
    assert fingerprint.stable_hash(value) == expected  # what that call stored


@settings(max_examples=150, deadline=None)
@given(value=_values, data=st.data())
def test_memoised_stable_hash_equals_the_uncached_encoder(value, data):
    twin = _twin(value)
    nodes = _mutable_nodes(value, [])
    # taken before the links below: they only add public paths
    encoded_nodes = _mutable_nodes(value, [], public_only=True)
    if nodes:
        # shared sub-objects, cycles and self-references
        picks = st.integers(0, len(nodes) - 1)
        for _ in range(data.draw(st.integers(0, 3))):
            _attach(nodes[data.draw(picks)], nodes[data.draw(picks)])
    memo = fingerprint._MEMO
    if data.draw(st.booleans()):
        memo.clear()  # else: filled by the examples before this one
    for each in (value, twin, value):
        _assert_memo_transparent(each)
    saved = memo.generation
    memo.generation = 2  # evicts in the middle of encoding one value
    try:
        _assert_memo_transparent(value)
    finally:
        memo.generation = saved
    _assert_memo_transparent(value)  # refilled
    if encoded_nodes:
        # A change under a ``_private`` attribute rightly changes nothing, so
        # the mutation that must show is drawn from the nodes the encoding reads.
        before = fingerprint.stable_hash(value)
        node = encoded_nodes[data.draw(st.integers(0, len(encoded_nodes) - 1))]
        _attach(node, data.draw(_leaves))
        _assert_memo_transparent(value)  # mutated after it was hashed
        if before[1] and isinstance(nodes[0], list):
            assert fingerprint.stable_hash(value) != before


def test_the_must_change_mutation_is_not_drawn_under_a_private_attribute():
    """The example that once failed the property above one run in 15 (and,
    saved under ``.hypothesis/``, every run after): the mutated list hangs
    below ``_p``, which the encoding ignores, so the hash rightly stays."""
    hidden = []
    value = [[], Payload({"a": Payload({"_p": hidden})})]
    before = fingerprint.stable_hash(value)
    assert any(node is hidden for node in _mutable_nodes(value, []))
    assert not any(node is hidden for node in _mutable_nodes(value, [], public_only=True))
    hidden.append(1)
    assert fingerprint.stable_hash(value) == before


class Blank(Machine):
    """Starts with no attribute of its own: the property below makes them."""


_ATTRIBUTES = ["a", "b", "c", "_p"]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_warm_refresh_equals_a_cold_tracker_after_any_mutation_sequence(data):
    """Rebinding (to anything, to an equal-and-different twin, to the same
    object), mutation in place at any depth and deletion, in any order, on
    public and private attributes: after each, the record that diffs and a
    cold tracker that encodes everything again agree on value and exactness."""
    tracker, machine = _warm_machine(Blank)
    tangled = set()  # names that may hold a cycle by now: the helpers above walk acyclic values
    for _ in range(data.draw(st.integers(1, 8))):
        name = data.draw(st.sampled_from(_ATTRIBUTES))
        action = data.draw(st.sampled_from(["bind", "twin", "attach", "delete", "nothing"]))
        held = vars(machine).get(name, machine)  # the machine itself: the name is not bound
        if held is machine or action == "bind":
            setattr(machine, name, data.draw(_values))
            tangled.discard(name)
        elif action == "delete":
            delattr(machine, name)
            tangled.discard(name)
        elif action == "twin" and name not in tangled:
            setattr(machine, name, _twin(held))
        elif action == "attach" and name not in tangled:
            nodes = _mutable_nodes(held, [])
            if nodes:
                picks = st.integers(0, len(nodes) - 1)
                if data.draw(st.booleans()):
                    # a shared sub-object, a cycle or a self-reference
                    _attach(nodes[data.draw(picks)], nodes[data.draw(picks)])
                    tangled.add(name)
                else:
                    _attach(nodes[data.draw(picks)], data.draw(_leaves))
        _touch_and_check(tracker, machine)
    assert tracker.refreshes >= 2


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_lazy_folds_match_recompute_at_every_scheduling_point(seed):
    """Out-of-order receives, raised events and halts with queued events."""
    _run_with_invariant(_picker_entry, iterations=8, max_steps=60, seed=seed)
