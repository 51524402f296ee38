"""Safety and liveness monitors for the example replication system (§2.4, §2.5).

Hot liveness states are marked with ``class X(State, hot=True)``.
"""

from __future__ import annotations

from repro.core import Monitor, State, on_event

from ..messages import NotifyAck, NotifyClientRequest, NotifyReplicaStored


class ReplicaSafetyMonitor(Monitor):
    """Asserts that an Ack is only sent once three distinct replicas exist.

    Storage nodes notify the monitor whenever they store the latest value; the
    modeled network notifies it whenever the server emits an Ack.  The monitor
    therefore maintains exactly the map the paper describes: node id -> "is a
    replica of the current value".
    """

    replica_target = 3

    def __init__(self, runtime) -> None:
        super().__init__(runtime)
        self.current_data = None
        self.replicas = set()

    class Tracking(State, initial=True):
        @on_event(NotifyClientRequest)
        def on_request(self, event: NotifyClientRequest) -> None:
            self.current_data = event.data
            self.replicas = set()

        @on_event(NotifyReplicaStored)
        def on_replica_stored(self, event: NotifyReplicaStored) -> None:
            if event.data == self.current_data:
                self.replicas.add(event.node_id)

        @on_event(NotifyAck)
        def on_ack(self, event: NotifyAck) -> None:
            self.assert_that(
                event.data == self.current_data,
                f"Ack for stale data {event.data} (current request is {self.current_data})",
            )
            self.assert_that(
                len(self.replicas) >= self.replica_target,
                f"Ack sent with only {len(self.replicas)} distinct replicas "
                f"(target is {self.replica_target})",
            )


class AckLivenessMonitor(Monitor):
    """Hot while a client request is outstanding; cold once it is acknowledged."""

    class Idle(State, initial=True):
        @on_event(NotifyClientRequest)
        def request_while_idle(self) -> None:
            self.goto(AckLivenessMonitor.Waiting)

        @on_event(NotifyAck)
        def spurious_ack(self) -> None:
            # An Ack with no outstanding request is allowed by the liveness
            # property (it is the safety monitor's job to complain about it).
            pass

    class Waiting(State, hot=True):
        @on_event(NotifyClientRequest)
        def request_while_waiting(self) -> None:
            # A new request arrived before the previous Ack: stay hot.
            pass

        @on_event(NotifyAck)
        def acknowledged(self) -> None:
            self.goto(AckLivenessMonitor.Idle)

    @on_event(NotifyReplicaStored)
    def ignore_replica_notifications(self) -> None:
        # Wildcard fallback: replica notifications are irrelevant to the
        # liveness property in every state.
        pass
