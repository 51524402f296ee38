"""Harness machines for the example replication system of §2.2/§2.3.

The real :class:`~repro.examplesys.server.ReplicationServer` is wrapped inside
a machine; the storage nodes, client and timers are modeled.  The modeled
network intercepts the server's outbound messages and relays them as events,
mirroring Figure 2 of the paper.

Machines are declared with nested :class:`~repro.core.declarations.State`
classes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core import Machine, MachineId, Receive, State, TimerMachine, TimerTick, on_event

from ..messages import (
    Ack,
    ClientRequest,
    NotifyAck,
    NotifyClientRequest,
    NotifyReplicaStored,
    ReplicationRequest,
    SyncReport,
)
from ..server import ReplicationServer, ServerConfig, ServerNetwork, StorageNodeStore
from .monitors import AckLivenessMonitor, ReplicaSafetyMonitor


class ModelServerNetwork(ServerNetwork):
    """Modeled network engine: relays the server's messages as machine events."""

    def __init__(self, server_machine: "ServerMachine") -> None:
        self._machine = server_machine

    def send_replication_request(self, node_id: int, data: int) -> None:
        target = self._machine.node_machines[node_id]
        self._machine.send(target, ReplicationRequest(data))

    def send_ack(self, data: int) -> None:
        self._machine.notify_monitor(ReplicaSafetyMonitor, NotifyAck(data))
        self._machine.notify_monitor(AckLivenessMonitor, NotifyAck(data))
        if self._machine.client is not None:
            self._machine.send(self._machine.client, Ack(data))


class ServerMachine(Machine):
    """Thin wrapper around the real server; also acts as the environment driver.

    On start it builds the environment: three modeled storage nodes (each with
    its own modeled timer) and the modeled client, then instantiates the real
    server with the modeled network plugged in.
    """

    def on_start(
        self,
        num_nodes: int = 3,
        num_requests: int = 2,
        server_config: Optional[ServerConfig] = None,
        timer_ticks: "int | None" = None,
    ) -> None:
        self.node_machines: Dict[int, MachineId] = {}
        self.client: Optional[MachineId] = None
        for node_id in range(num_nodes):
            self.node_machines[node_id] = self.create(
                StorageNodeMachine, self.id, node_id, timer_ticks, name=f"SN-{node_id}"
            )
        self.server = ReplicationServer(
            node_ids=list(self.node_machines),
            network=ModelServerNetwork(self),
            config=server_config,
        )
        self.client = self.create(ClientMachine, self.id, num_requests, name="Client")

    class Init(State, initial=True):
        @on_event(ClientRequest)
        def handle_client_request(self, event: ClientRequest) -> None:
            self.notify_monitor(ReplicaSafetyMonitor, NotifyClientRequest(event.data))
            self.notify_monitor(AckLivenessMonitor, NotifyClientRequest(event.data))
            self.server.process_client_request(event.data)

        @on_event(SyncReport)
        def handle_sync(self, event: SyncReport) -> None:
            self.server.process_sync(event.node_id, event.log)


class StorageNodeMachine(Machine):
    """Modeled storage node: stores data in memory and syncs on timer ticks."""

    def on_start(self, server: MachineId, node_id: int, timer_ticks: "int | None") -> None:
        self.server = server
        self.node_id = node_id
        self.store = StorageNodeStore(node_id)
        self.timer = self.create(
            TimerMachine, self.id, timer_name=f"sn-{node_id}", max_ticks=timer_ticks,
            name=f"Timer-SN-{node_id}",
        )

    class Init(State, initial=True):
        @on_event(ReplicationRequest)
        def handle_replication(self, event: ReplicationRequest) -> None:
            self.store.store(event.data)
            self.notify_monitor(ReplicaSafetyMonitor, NotifyReplicaStored(self.node_id, event.data))

        @on_event(TimerTick)
        def handle_timeout(self) -> None:
            self.send(self.server, SyncReport(self.node_id, self.store.latest))


class ClientMachine(Machine):
    """Modeled client: sends nondeterministic requests and waits for each Ack.

    Late duplicate acknowledgements that arrive after the client finished its
    request loop are ignored rather than reported as unhandled events.  (The
    blunt machine-wide ``ignore_unhandled_events`` flag is kept — rather than
    a per-state ``ignored = (Ack,)`` discipline — so that the scenario's
    schedules stay byte-identical to the seed: a dropped unhandled event
    consumes a scheduling step, a state-ignored event never becomes runnable.
    The discipline form is showcased by the flush-store harness.)
    """

    ignore_unhandled_events = True

    class Init(State, initial=True):
        """Single protocol phase: the request loop lives in ``on_start``."""

    def on_start(self, server: MachineId, num_requests: int):
        self.server = server
        self.acked: List[int] = []
        for request_index in range(num_requests):
            # Nondeterministic payload, but guaranteed distinct across requests
            # so that "is node X a replica of the current value" is well defined.
            data = request_index * 100 + self.random_integer(100)
            self.send(self.server, ClientRequest(data, self.id))
            ack = yield Receive(Ack)
            self.acked.append(ack.data)
