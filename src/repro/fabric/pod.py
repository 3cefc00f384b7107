"""A pod: 48 servers and their 6x8 torus (§2.2, Figure 2).

Each pod has its own power distribution unit and top-of-rack switch.
The pod builds the servers, wires the torus through cable assemblies
(honouring any injected miswiring), and programs every router's static
dimension-order routing table.
"""

from __future__ import annotations


from repro.fabric.cables import CableAssembly, WiringPlan
from repro.fabric.ethernet import EthernetNetwork
from repro.fabric.server import Server
from repro.fabric.torus import NodeId, TorusTopology, dor_routes
from repro.shell.sl3 import Sl3Link
from repro.sim import Engine


class Pod:
    """One half-rack of 48 FPGA-equipped servers."""

    def __init__(
        self,
        engine: Engine,
        pod_id: int = 0,
        topology: TorusTopology | None = None,
        ethernet: EthernetNetwork | None = None,
        wiring: WiringPlan | None = None,
    ):
        self.engine = engine
        self.pod_id = pod_id
        self.topology = topology or TorusTopology()
        self.ethernet = ethernet or EthernetNetwork(engine)
        self.wiring = wiring or WiringPlan(self.topology)
        self.servers: dict[NodeId, Server] = {}
        self.links: list[Sl3Link] = []
        self.assemblies: dict[str, CableAssembly] = {}
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self) -> None:
        for node in self.topology.nodes():
            machine_id = self.machine_id(node)
            server = Server(self.engine, machine_id, node)
            self.servers[node] = server
            self.ethernet.register(machine_id, server.health_rpc_handler)
        self._wire_links()
        self._program_routes()

    def machine_id(self, node: NodeId) -> str:
        x, y = node
        return f"pod{self.pod_id}-s{y * self.topology.width + x:02d}"

    def _wire_links(self) -> None:
        assembly_groups = self.wiring.assemblies()
        index_to_assembly = {
            index: name for name, indices in assembly_groups.items() for index in indices
        }
        for index, (src, src_port, dst, dst_port) in enumerate(self.wiring.wires):
            a = self.servers[src].shell.create_endpoint(src_port)
            b = self.servers[dst].shell.create_endpoint(dst_port)
            link = Sl3Link(
                self.engine, a, b, name=f"pod{self.pod_id}:{src}:{src_port.value}"
            )
            self.links.append(link)
            name = index_to_assembly[index]
            assembly = self.assemblies.setdefault(
                name, CableAssembly(name=f"pod{self.pod_id}:{name}")
            )
            assembly.links.append(link)

    def _program_routes(self) -> None:
        for node, server in self.servers.items():
            server.shell.router.set_routes(dor_routes(self.topology, node))

    # -- access ----------------------------------------------------------------

    def server_at(self, node: NodeId) -> Server:
        return self.servers[node]

    def ring(self, x: int) -> list[Server]:
        """The 8 servers of column ``x`` — one ranking pipeline (§4)."""
        return [self.servers[node] for node in self.topology.ring(x)]

    def release_all_rx_halts(self) -> None:
        """Fabric bring-up complete: accept inter-FPGA traffic."""
        for server in self.servers.values():
            server.shell.release_rx_halt()

    def __repr__(self) -> str:
        return f"<Pod {self.pod_id}: {len(self.servers)} servers, {len(self.links)} links>"
