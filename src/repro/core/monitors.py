"""Safety and liveness monitors.

Monitors are passive observers: machines notify them of interesting events
via :meth:`Machine.notify_monitor`, and the monitor updates its private state
and checks the specification.  Monitors can receive events but never send
them, which keeps specification state cleanly separated from program state
(§2.4 of the paper).

* A **safety monitor** flags erroneous finite behaviours with
  :meth:`Monitor.assert_that`.
* A **liveness monitor** declares some of its states *hot* (progress is
  required but has not happened yet) with ``class Waiting(State, hot=True)``.
  If a liveness monitor is still in a hot state when an execution reaches the
  configured step bound (the "bounded infinite execution" heuristic of §2.5),
  or when the whole system becomes quiescent, a liveness violation is
  reported.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from .declarations import (
    IGNORE,
    StateMachineSpec,
    StateRef,
    build_spec,
    resolve_state_name,
)
from .errors import FrameworkError
from .events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime.kernel import RuntimeKernel


class Monitor:
    """Base class for safety and liveness monitors.

    Subclasses declare event handlers in nested
    :class:`~repro.core.declarations.State` classes (marking hot liveness
    states with ``class Waiting(State, hot=True)``) or, for handlers that
    apply in every state, on the monitor body.  Monitors transition with
    :meth:`goto`.
    """

    _spec_cache: dict = {}

    def __init__(self, runtime: "RuntimeKernel") -> None:
        self._runtime = runtime
        spec = type(self).spec()
        self._current_state = spec.initial_state
        #: Number of consecutive runtime steps spent in a hot state.
        self._hot_since_step: Optional[int] = None
        #: per-instance handle on the (class-cached) spec so event dispatch
        #: skips a dict lookup per notification.
        self._spec = spec
        self._hot_states = spec.hot_states
        #: monotonic goto count; registration uses it to tell "never left the
        #: initial state" from "left and came back".
        self._transition_count = 0
        #: classification context of the current state, filled by the first
        #: notification that needs it and dropped by :meth:`goto`.
        self._state_ctx = None

    @classmethod
    def spec(cls) -> StateMachineSpec:
        cached = Monitor._spec_cache.get(cls)
        if cached is None:
            cached = build_spec(cls)
            if cached.deferred:
                states = ", ".join(sorted(cached.deferred))
                raise TypeError(
                    f"monitor {cls.__name__} declares deferred events (state(s) "
                    f"{states}): monitors are notified synchronously and cannot "
                    f"defer — drop with `ignored` or handle the event instead"
                )
            Monitor._spec_cache[cls] = cached
        return cached

    @classmethod
    def is_liveness_monitor(cls) -> bool:
        return bool(cls.spec().hot_states)

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def current_state(self) -> str:
        return self._current_state

    @property
    def is_hot(self) -> bool:
        return self._current_state in self._hot_states

    def goto(self, state: StateRef) -> None:
        """Transition the monitor to ``state`` (running any entry action).

        ``state`` is a state name or a nested State subclass.
        """
        state = resolve_state_name(state)
        spec = self._spec
        exit_action = spec.exit_actions.get(self._current_state)
        if exit_action is not None:
            getattr(self, exit_action)()
        self._current_state = state
        self._state_ctx = None
        self._transition_count += 1
        self._runtime.record_monitor_state(self, state)
        entry_action = spec.entry_actions.get(state)
        if entry_action is not None:
            getattr(self, entry_action)()

    # ------------------------------------------------------------------
    # specification helpers
    # ------------------------------------------------------------------
    def assert_that(self, condition: bool, message: str = "") -> None:
        """Global safety assertion over the monitor's accumulated history."""
        self._runtime.check_assertion(condition, message, source=type(self).__name__)

    def log(self, message: str) -> None:
        # Lazy capture, like Machine.log: the final string is only built if
        # the log is materialized (bug found or verbose mirroring).
        self._runtime.log("{}: {}", type(self).__name__, message)

    # ------------------------------------------------------------------
    # hook for the runtime
    # ------------------------------------------------------------------
    def handle(self, event: Event) -> None:
        """Dispatch ``event`` to the handler registered for the current state.

        States may declare ``ignored = (EventT, ...)``: matching
        notifications are dropped silently in that state.  (``deferred`` is
        rejected at spec-build time — monitors have no inbox to defer into.)
        """
        event_type = type(event)
        context = self._state_ctx
        if context is None:
            context = self._state_ctx = self._spec.context_for((self._current_state,))
        try:
            info = context.actions[event_type]
        except KeyError:
            info = context.resolve(event_type)
        if info is IGNORE:
            self._runtime.log(
                "monitor {} ignored {!r} in state {!r}",
                type(self).__name__, event, self._current_state,
            )
            return
        if info is None:
            raise FrameworkError(
                f"monitor {type(self).__name__} has no handler for "
                f"{event_type.__name__} in state {self._current_state!r}"
            )
        handler = getattr(self, info.method_name)
        if info.wants_event:
            handler(event)
        else:
            handler()

    def __repr__(self) -> str:
        marker = "hot" if self.is_hot else "cold"
        return f"<{type(self).__name__} state={self._current_state!r} ({marker})>"
