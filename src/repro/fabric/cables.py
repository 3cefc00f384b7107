"""SAS cable assemblies and the wiring plan (§2.2).

The torus is cabled through a passive backplane with custom cable
assemblies — shells of eight and six cables — installed at rack
integration time.  An assembly failure takes down every link it
carries; a miswired assembly cross-connects nodes, which the Health
Monitor detects by comparing advertised neighbour machine IDs against
the expected topology (§3.5).
"""

from __future__ import annotations

import dataclasses

from repro.fabric.torus import NodeId, TorusTopology
from repro.shell.router import Port
from repro.shell.sl3 import Sl3Link


@dataclasses.dataclass
class CableAssembly:
    """A bundle of physical links sharing one cable shell."""

    name: str
    links: list[Sl3Link] = dataclasses.field(default_factory=list)
    failed: bool = False

    def fail(self) -> None:
        """The whole assembly goes dark (cut/unplugged shell)."""
        self.failed = True
        for link in self.links:
            link.break_cable()

    def repair(self) -> None:
        self.failed = False
        for link in self.links:
            link.repair_cable()


WireSpec = tuple[NodeId, Port, NodeId, Port]


class WiringPlan:
    """The intended physical wiring, with optional miswiring injected.

    Built from the topology's link list; ``swap`` exchanges the far
    ends of two wires *before* the pod constructs the physical links —
    modelling a cabling mistake at integration time.
    """

    def __init__(self, topology: TorusTopology):
        self.topology = topology
        self.wires: list[WireSpec] = topology.links()

    def swap(self, index_a: int, index_b: int) -> None:
        """Cross-connect wires ``index_a`` and ``index_b`` (miswiring)."""
        if index_a == index_b:
            raise ValueError("cannot swap a wire with itself")
        a = self.wires[index_a]
        b = self.wires[index_b]
        self.wires[index_a] = (a[0], a[1], b[2], b[3])
        self.wires[index_b] = (b[0], b[1], a[2], a[3])

    def assemblies(self) -> dict[str, list[int]]:
        """Group wire indices into cable assemblies.

        Column (Y-dimension) wires form shells of ``height`` cables;
        row (X-dimension) wires form shells of ``width`` cables —
        the paper's shells of eight and six.
        """
        groups: dict[str, list[int]] = {}
        for index, (src, port, _dst, _dport) in enumerate(self.wires):
            if port is Port.SOUTH:
                key = f"col{src[0]}"
            else:
                key = f"row{src[1]}"
            groups.setdefault(key, []).append(index)
        return groups
