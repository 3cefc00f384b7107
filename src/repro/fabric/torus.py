"""The 6x8 two-dimensional torus topology (§2.2).

The torus balanced routability and cabling complexity for a 48-server
pod.  Each node connects to four neighbours (north/south/east/west with
wraparound).  Routing tables are static and software-configured (§3.2);
we compute shortest-path dimension-order routes (X then Y).
"""

from __future__ import annotations

import dataclasses

from repro.hardware.constants import TORUS_HEIGHT, TORUS_WIDTH
from repro.shell.router import Port

NodeId = tuple[int, int]


@dataclasses.dataclass(frozen=True)
class TorusTopology:
    """Geometry of one pod's torus."""

    width: int = TORUS_WIDTH
    height: int = TORUS_HEIGHT

    def __post_init__(self) -> None:
        if self.width < 2 or self.height < 2:
            raise ValueError(
                f"torus needs at least 2x2 nodes, got {self.width}x{self.height}"
            )

    @property
    def node_count(self) -> int:
        return self.width * self.height

    def nodes(self) -> list[NodeId]:
        """All coordinates in row-major order."""
        return [(x, y) for y in range(self.height) for x in range(self.width)]

    def contains(self, node: NodeId) -> bool:
        x, y = node
        return 0 <= x < self.width and 0 <= y < self.height

    def neighbor(self, node: NodeId, port: Port) -> NodeId:
        """The coordinate one hop away through ``port`` (with wraparound)."""
        x, y = node
        if not self.contains(node):
            raise ValueError(f"{node} outside the {self.width}x{self.height} torus")
        if port is Port.EAST:
            return ((x + 1) % self.width, y)
        if port is Port.WEST:
            return ((x - 1) % self.width, y)
        if port is Port.SOUTH:
            return (x, (y + 1) % self.height)
        if port is Port.NORTH:
            return (x, (y - 1) % self.height)
        raise ValueError(f"{port} is not a network port")

    def ring(self, x: int) -> list[NodeId]:
        """One column: the 8-node ring the ranking pipeline maps onto (§4).

        The engine "maps to rings of eight FPGAs on one dimension of
        the torus" — a full wrap in Y at fixed X.
        """
        if not 0 <= x < self.width:
            raise ValueError(f"column {x} outside torus width {self.width}")
        return [(x, y) for y in range(self.height)]

    def links(self) -> list[tuple[NodeId, Port, NodeId, Port]]:
        """Every physical link exactly once, as (node, port, node, port).

        Each node owns its EAST and SOUTH cables; the peer sees them as
        WEST and NORTH.  A W*H torus has 2*W*H links.
        """
        result = []
        for node in self.nodes():
            east = self.neighbor(node, Port.EAST)
            south = self.neighbor(node, Port.SOUTH)
            result.append((node, Port.EAST, east, Port.WEST))
            result.append((node, Port.SOUTH, south, Port.NORTH))
        return result

    def hop_distance(self, a: NodeId, b: NodeId) -> int:
        """Shortest-path hop count between two nodes."""
        dx = abs(a[0] - b[0])
        dy = abs(a[1] - b[1])
        return min(dx, self.width - dx) + min(dy, self.height - dy)


def dor_routes(topology: TorusTopology, src: NodeId) -> dict[NodeId, Port]:
    """Dimension-order (X then Y) shortest-path routes from ``src``.

    Ties on the wraparound midpoint break toward EAST/SOUTH, keeping
    tables deterministic across the pod.
    """
    routes: dict[NodeId, Port] = {}
    for dst in topology.nodes():
        if dst == src:
            continue
        dx = (dst[0] - src[0]) % topology.width
        if dx != 0:
            routes[dst] = Port.EAST if dx <= topology.width // 2 else Port.WEST
            continue
        dy = (dst[1] - src[1]) % topology.height
        routes[dst] = Port.SOUTH if dy <= topology.height // 2 else Port.NORTH
    return routes
