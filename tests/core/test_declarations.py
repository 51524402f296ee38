"""Unit tests for handler declarations and spec building."""

import pytest

from repro.core import Event, Machine, State, on_event
from repro.core.declarations import ANY_STATE, build_spec


class Ev1(Event):
    pass


class Ev2(Event):
    pass


class EvSub(Ev1):
    pass


class Stateful(Machine):
    class A(State, initial=True, name="a"):
        @on_event(Ev1)
        def handle_a(self, event):
            pass

        def on_exit(self):
            pass

    class B(State, name="b"):
        @on_event(Ev1)
        def handle_b(self):
            pass

        def on_entry(self):
            pass

    @on_event(Ev2)
    def handle_any(self, event):
        pass


def handler_for(spec, state, event_type):
    """The handler ``event_type`` resolves to while in the single state ``state``."""
    return spec.context_for((state,)).handler_only(event_type)


def test_spec_collects_states_and_handlers():
    spec = Stateful.spec()
    assert spec.states == {"a", "b"}
    assert handler_for(spec, "a", Ev1).method_name == "_state_a_handle_a"
    assert handler_for(spec, "b", Ev1).method_name == "_state_b_handle_b"
    assert handler_for(spec, "a", Ev2).method_name == "handle_any"
    assert handler_for(spec, "zzz", Ev2).method_name == "handle_any"


def test_spec_subclass_event_resolution():
    spec = Stateful.spec()
    assert handler_for(spec, "a", EvSub).method_name == "_state_a_handle_a"


def test_spec_wants_event_detection():
    spec = Stateful.spec()
    assert handler_for(spec, "a", Ev1).wants_event is True
    assert handler_for(spec, "b", Ev1).wants_event is False


def test_spec_entry_exit_actions():
    spec = Stateful.spec()
    assert spec.entry_actions == {"b": "_state_b_on_entry"}
    assert spec.exit_actions == {"a": "_state_a_on_exit"}


def test_action_handler_count():
    assert Stateful.spec().action_handler_count == 5


def test_on_event_requires_types():
    with pytest.raises(TypeError):
        on_event()


def test_inherited_handlers_are_collected():
    class Child(Stateful):
        class A(State, name="a"):
            @on_event(Ev2)
            def handle_child(self, event):
                pass

    spec = build_spec(Child)
    assert handler_for(spec, "a", Ev2).method_name == "_state_a_handle_child"
    assert handler_for(spec, "b", Ev2).method_name == "handle_any"


def test_wildcard_state_constant():
    spec = Stateful.spec()
    assert (ANY_STATE, Ev2) in spec.handlers


class EvDeep(EvSub):
    pass


def test_base_type_resolution_prefers_most_derived_regardless_of_order():
    """Regression: resolution used to depend on handler registration order.

    Two base-class handlers for the same event hierarchy must resolve to the
    handler bound to the *closest* base in the event's MRO, whichever was
    registered first.
    """

    class BaseFirst(Machine):
        @on_event(Ev1)
        def general(self, event):
            pass

        @on_event(EvSub)
        def specific(self, event):
            pass

    class SpecificFirst(Machine):
        @on_event(EvSub)
        def specific(self, event):
            pass

        @on_event(Ev1)
        def general(self, event):
            pass

    for cls in (BaseFirst, SpecificFirst):
        spec = build_spec(cls)
        assert handler_for(spec, "init", EvDeep).method_name == "specific"
        assert handler_for(spec, "init", EvSub).method_name == "specific"
        assert handler_for(spec, "init", Ev1).method_name == "general"


def test_state_handlers_beat_wildcard_handlers_for_base_matches():
    """A state's own handler — however general its event type — wins over a
    machine-wide (wildcard) handler, even one bound to the exact type."""

    class Layered(Machine):
        class A(State, initial=True, name="a"):
            @on_event(Ev1)
            def state_general(self, event):
                pass

        @on_event(EvSub)
        def wildcard_exact(self, event):
            pass

    spec = build_spec(Layered)
    assert handler_for(spec, "a", EvSub).method_name == "_state_a_state_general"
    assert handler_for(spec, "b", EvSub).method_name == "wildcard_exact"
