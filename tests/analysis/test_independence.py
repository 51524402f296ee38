"""The static independence table: concrete footprints, degradation, stability.

The discipline under test is *degrade to dependent*: every construct the
extractor cannot prove harmless must surface as an ``{"opaque": true}`` entry
(the ``dpor-lite`` consumer treats opaque — and any lookup miss — as
conflicting with everything), while the constructs the vNext harness actually
uses stay concrete so pruning has something to work with.

Footprints are split into ``writes``/``reads`` and carry
``{"event-field": name}`` items.
"""

import json
import random

from repro.analysis import (
    TABLE_VERSION,
    clear_model_cache,
    independence_for_classes,
    independence_for_scenarios,
)
from repro.core import Event, Machine, State, on_event
from repro.core.registry import get_scenario, load_builtin_scenarios


def _vnext_table():
    load_builtin_scenarios()
    return independence_for_scenarios([get_scenario("vnext/extent-node-liveness")])


def _events(table, machine_key):
    return table["machines"][machine_key]["events"]


def test_vnext_footprints_are_concrete_where_it_matters():
    table = _vnext_table()
    assert table["version"] == TABLE_VERSION

    timer = _events(table, "repro.core.timer.TimerMachine")
    # wall-clock-only branches are mode-dead under the test runtime, so the
    # timer's start handler touches nothing but itself
    assert timer["repro.core.events.StartEvent"] == {
        "creates": False, "monitors": [], "writes": ["self"], "reads": [],
    }
    loop = timer["repro.core.timer._TimerLoop"]
    assert loop["writes"] == ["self", {"attr": "target"}]
    assert loop["reads"] == [{"attr": "target"}]

    driver = _events(table, "repro.vnext.harness.machines.TestingDriverMachine")
    inject = driver["repro.vnext.harness.events.InjectFailure"]
    # the victim is drawn from the confined node_machines dict: the footprint
    # names the container, resolved to all of its members at choice time
    assert inject["writes"] == [{"attr-values": "node_machines"}]
    assert inject["creates"] is True
    assert inject["monitors"] == ["repro.vnext.harness.monitor.RepairMonitor"]

    node = _events(table, "repro.vnext.harness.machines.ExtentNodeMachine")
    failure = node["repro.vnext.harness.events.FailureEvent"]
    assert failure["monitors"] == ["repro.vnext.harness.monitor.RepairMonitor"]
    assert {"attr": "heartbeat_timer"} in failure["writes"]

    # Halt dispatches with no on_halt effects are universally clean
    manager = _events(table, "repro.vnext.harness.machines.ExtentManagerMachine")
    assert manager["repro.core.events.Halt"]["writes"] == []


def test_v2_event_field_targets_resolve_through_the_payload():
    # the copy-request handler replies to event.requester: the table carries
    # the field and the strategy resolves it at choice time
    node = _events(
        _vnext_table(), "repro.vnext.harness.machines.ExtentNodeMachine"
    )
    copy_request = node["repro.vnext.harness.events.CopyRequestEvent"]
    assert copy_request["writes"] == [{"event-field": "requester"}]
    # inbox queries land in reads, not writes: read/read overlaps commute
    tick = node["repro.core.events.TimerTick"]
    assert tick["reads"] == [{"attr": "extent_manager"}]
    assert tick["writes"] == [{"attr": "extent_manager"}]


def test_vnext_wrapped_component_dispatches_stay_opaque():
    # ExtentManagerMachine forwards messages into the wrapped real
    # ExtentManager component — effects outside the event model
    manager = _events(
        _vnext_table(), "repro.vnext.harness.machines.ExtentManagerMachine"
    )
    assert manager["repro.vnext.harness.events.ExtentManagerMessageEvent"] == {
        "opaque": True
    }


# ---------------------------------------------------------------------------
# degradation fixtures: each unprovable construct must poison its entry
# ---------------------------------------------------------------------------
class Poke(Event):
    pass


class ExternalCaller(Machine):
    """Calls into a non-framework module: arbitrary effects."""

    class Only(State, initial=True):
        @on_event(Poke)
        def jitter(self) -> None:
            random.random()


class TargetRebinder(Machine):
    """Rebinds the attribute its send resolves through, mid-dispatch."""

    class Only(State, initial=True):
        @on_event(Poke)
        def retarget(self) -> None:
            self.peer = self.create(ExternalCaller)
            self.send(self.peer, Poke())


class CleanSelfSender(Machine):
    class Only(State, initial=True):
        @on_event(Poke)
        def echo(self) -> None:
            self.send(self.id, Poke())


class KernelSurfaceSender(Machine):
    """The same send and choice spelled on the runtime, as the modeled
    timer's hot loop does to skip the Machine wrapper frames."""

    class Only(State, initial=True):
        @on_event(Poke)
        def echo(self) -> None:
            if self._runtime.next_boolean(self._id):
                self._runtime.send_event(self.id, Poke(), self._id)


class AliasedRuntimeSender(Machine):
    """Only the spelled-out ``self._runtime.<call>`` is read as a framework
    call; through a local alias the receiver is an unknown object."""

    class Only(State, initial=True):
        @on_event(Poke)
        def echo(self) -> None:
            runtime = self._runtime
            runtime.send_event(self.id, Poke(), self._id)


class RuntimeInternalsCaller(Machine):
    class Only(State, initial=True):
        @on_event(Poke)
        def meddle(self) -> None:
            self._runtime.machine_instance(self.id)


class HelperFieldSender(Machine):
    """Reads the target off the event payload — but in a *helper* method,
    whose second argument is not necessarily the dispatched event, so the
    event-field item must not be emitted and the entry degrades."""

    class Only(State, initial=True):
        @on_event(Poke)
        def enter(self, event) -> None:
            self.reply(event)

    def reply(self, event) -> None:
        self.send(event.requester, Poke())


def _entry_for(cls):
    table = independence_for_classes([cls])
    key = f"{cls.__module__}.{cls.__qualname__}"
    return table["machines"][key]["events"][f"{Poke.__module__}.Poke"]


def test_external_call_degrades_the_dispatch_to_opaque():
    assert _entry_for(ExternalCaller) == {"opaque": True}


def test_rebound_target_attribute_degrades_to_opaque():
    assert _entry_for(TargetRebinder) == {"opaque": True}


def test_self_send_stays_concrete():
    entry = _entry_for(CleanSelfSender)
    assert entry["writes"] == ["self"]
    assert entry["creates"] is False


def test_kernel_surface_spelling_is_the_same_footprint():
    assert _entry_for(KernelSurfaceSender) == _entry_for(CleanSelfSender)


def test_aliased_or_unnamed_runtime_calls_degrade_to_opaque():
    assert _entry_for(AliasedRuntimeSender) == {"opaque": True}
    assert _entry_for(RuntimeInternalsCaller) == {"opaque": True}


def test_event_field_in_helper_method_degrades_to_opaque():
    assert _entry_for(HelperFieldSender) == {"opaque": True}


def test_table_is_json_safe_and_byte_stable():
    first = json.dumps(_vnext_table(), sort_keys=True)
    clear_model_cache()
    second = json.dumps(_vnext_table(), sort_keys=True)
    assert first == second
