"""The inter-FPGA router (§3.2).

A crossbar connecting the four SL3 network ports, the PCIe controller
and the application role.  Routing decisions come from a static,
software-configured routing table.  The transport is virtual
cut-through with no retransmission or source buffering; the crossbar
adds a small fixed latency which we fold into the per-hop link latency.

Every packet entering or exiting is recorded in the Flight Data
Recorder (head/tail flits, §3.6).

Each output port is a bounded :class:`~repro.sim.Fifo` drained by
callbacks, not by processes: :meth:`Router.attach_transmitter` names
the port's consumer (an SL3 link direction, the PCIe output DMA, or the
role's :class:`~repro.shell.role.RolePort`), and every submit to the
port calls its ``feed()``.  A put with room is done at once; a put into
a full queue is the event the sender waits on until the consumer's
``try_get`` makes room.
"""

from __future__ import annotations

import enum
import typing

from repro.shell.fdr import FlightDataRecorder
from repro.shell.messages import NodeId, Packet, PacketKind
from repro.sim import Engine, Event, Fifo

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.shell.pcie import PcieCore
    from repro.shell.role import RolePort
    from repro.shell.sl3 import Sl3Transmitter


class RoutingError(Exception):
    """Raised when configuring an invalid route."""


class Port(enum.Enum):
    """Crossbar ports: four neighbours, the host, and the role."""

    NORTH = "north"
    SOUTH = "south"
    EAST = "east"
    WEST = "west"
    PCIE = "pcie"
    ROLE = "role"


NETWORK_PORTS = (Port.NORTH, Port.SOUTH, Port.EAST, Port.WEST)


class Router:
    """Static-table crossbar with bounded per-output queues."""

    def __init__(
        self,
        engine: Engine,
        node_id: NodeId,
        fdr: FlightDataRecorder | None = None,
        queue_capacity: int = 64,
    ):
        self.engine = engine
        self.node_id = node_id
        # NOTE: an empty recorder is falsy (len == 0); test identity.
        self.fdr = fdr if fdr is not None else FlightDataRecorder()
        self.routing_table: dict[NodeId, Port] = {}
        self.output_queues: dict[Port, Fifo] = {
            port: Fifo(engine, capacity=queue_capacity, name=f"rtq:{node_id}:{port.value}")
            for port in Port
        }
        # Port -> (queue, consumer fed from it or None): one lookup per
        # submit.
        self._outputs: dict[Port, tuple[Fifo, Sl3Transmitter | PcieCore | RolePort | None]] = {
            port: (queue, None) for port, queue in self.output_queues.items()
        }
        self.dropped_no_route = 0
        self.forwarded = 0
        # The port set is static: build the queue-probe list once, not
        # per recorded hop.
        self._queue_probe = [
            (port.value, queue.items) for port, queue in self.output_queues.items()
        ]

    # -- configuration ------------------------------------------------------

    def set_route(self, dst: NodeId, port: Port) -> None:
        """Software-configured static route: packets for ``dst`` exit ``port``."""
        if port not in NETWORK_PORTS:
            raise RoutingError(f"routes must exit a network port, got {port}")
        if dst == self.node_id:
            raise RoutingError("cannot add a network route to self")
        self.routing_table[dst] = port

    def set_routes(self, table: dict[NodeId, Port]) -> None:
        for dst, port in table.items():
            self.set_route(dst, port)

    def attach_transmitter(
        self, port: Port, transmitter: Sl3Transmitter | PcieCore | RolePort
    ) -> None:
        """Have ``transmitter`` (an SL3 link direction, the PCIe output
        DMA, or the role's port) drain ``port``'s queue; each submit to
        the port calls its ``feed()``."""
        queue = transmitter.source = self.output_queues[port]
        self._outputs[port] = (queue, transmitter)

    # -- data path ------------------------------------------------------------

    def submit(self, packet: Packet, in_port: Port) -> Event | None:
        """Route ``packet``; returns a put event (yield it) or None if dropped."""
        out_port = self._select_output(packet)
        if out_port is None:
            self.dropped_no_route += 1
            return None
        self.forwarded += 1
        packet.route.append(self.node_id)
        self.fdr.record(
            (
                self.engine.now,
                packet.trace_id,
                packet.size_bytes,
                in_port,
                out_port,
                packet.kind,
                tuple([(name, len(items)) for name, items in self._queue_probe if items]),
            )
        )
        queue, transmitter = self._outputs[out_port]
        put = queue.put(packet)
        if transmitter is not None:
            transmitter.feed()
        return put

    def _select_output(self, packet: Packet) -> Port | None:
        if packet.kind is PacketKind.GARBAGE:
            # Random bits from a misbehaving neighbour carry no valid
            # destination; the crossbar misinterprets them as local
            # role traffic — exactly the §3.4 corruption hazard.
            return Port.ROLE
        if packet.dst == self.node_id:
            # Local delivery: responses exit to the host, everything
            # else (requests, reloads) goes to the role.
            if packet.kind is PacketKind.RESPONSE:
                return Port.PCIE
            return Port.ROLE
        return self.routing_table.get(packet.dst)

    def queue_depth(self, port: Port) -> int:
        return len(self.output_queues[port])

    def __repr__(self) -> str:
        return f"<Router {self.node_id} routes={len(self.routing_table)}>"
