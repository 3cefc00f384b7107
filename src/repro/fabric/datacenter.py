"""The datacenter deployment (§2.3).

The production test bed was 34 populated pods in 17 racks — 1,632
machines.  At deployment, 7 cards (0.4 %) had hardware failures and 1
of the 3,264 cable-assembly links (0.03 %) was defective; no further
hardware failures were observed over several months.

Building 34 live pods is possible but rarely necessary: experiments
run on one pod (or one ring) and scale analytically.  The datacenter
object therefore builds pods lazily and provides a Monte Carlo
manufacturing-test model for the §2.3 statistics.
"""

from __future__ import annotations

import dataclasses

from repro.fabric.ethernet import EthernetNetwork
from repro.fabric.pod import Pod
from repro.fabric.server import ServerState
from repro.fabric.torus import TorusTopology
from repro.hardware.constants import (
    CARD_FAILURE_RATE,
    LINK_FAILURE_RATE,
    PODS_DEPLOYED,
)
from repro.hardware.fpga import FpgaState
from repro.sim import Engine


@dataclasses.dataclass(frozen=True, order=True)
class RingSlot:
    """One deployable ring: column ``ring_x`` of pod ``pod_id``.

    The scheduling unit of the cluster layer — the paper's engine "maps
    to rings of eight FPGAs on one dimension of the torus" (§4), and
    the datacenter scales by filling many such rings across pods.
    """

    pod_id: int
    ring_x: int


@dataclasses.dataclass(frozen=True)
class ManufacturingReport:
    """Outcome of deployment-time card/cable testing."""

    total_cards: int
    failed_cards: int
    total_links: int
    failed_links: int
    # Where the failed cards landed: (slot, node) pairs, so the control
    # plane can cordon the affected rings until the cards are swapped.
    failed_card_sites: tuple = ()

    @property
    def failed_card_slots(self) -> tuple:
        """The distinct ring slots containing a failed card."""
        return tuple(sorted({slot for slot, _node in self.failed_card_sites}))

    @property
    def card_failure_rate(self) -> float:
        return self.failed_cards / self.total_cards if self.total_cards else 0.0


class Datacenter:
    """A deployment of pods sharing one management network."""

    def __init__(
        self,
        engine: Engine,
        num_pods: int = PODS_DEPLOYED,
        topology: TorusTopology | None = None,
    ):
        if num_pods < 1:
            raise ValueError(f"need at least one pod, got {num_pods}")
        self.engine = engine
        self.num_pods = num_pods
        self.topology = topology or TorusTopology()
        self.ethernet = EthernetNetwork(engine)
        self._pods: dict[int, Pod] = {}

    # -- lazily built pods ---------------------------------------------------

    def pod(self, pod_id: int) -> Pod:
        """Build (once) and return pod ``pod_id``."""
        if not 0 <= pod_id < self.num_pods:
            raise ValueError(f"pod {pod_id} outside deployment of {self.num_pods}")
        if pod_id not in self._pods:
            self._pods[pod_id] = Pod(
                self.engine,
                pod_id=pod_id,
                topology=self.topology,
                ethernet=self.ethernet,
            )
        return self._pods[pod_id]

    @property
    def total_servers(self) -> int:
        return self.num_pods * self.topology.node_count

    @property
    def total_links(self) -> int:
        # Every node owns two cables (EAST + SOUTH) in a 2-D torus.
        return self.num_pods * 2 * self.topology.node_count

    @property
    def racks(self) -> int:
        return (self.num_pods + 1) // 2  # two pods per rack

    # -- ring/pod enumeration (cluster scheduling) ---------------------------

    @property
    def rings_per_pod(self) -> int:
        return self.topology.width

    @property
    def total_rings(self) -> int:
        return self.num_pods * self.rings_per_pod

    def ring_slots(self) -> list[RingSlot]:
        """Every deployable ring, pod-major, without building any pod."""
        return [
            RingSlot(pod_id, ring_x)
            for pod_id in range(self.num_pods)
            for ring_x in range(self.rings_per_pod)
        ]

    def ring_servers(self, slot: RingSlot) -> list:
        """The servers of one ring slot (builds the pod on first use)."""
        return self.pod(slot.pod_id).ring(slot.ring_x)

    # -- inter-pod torus links (composite services) ---------------------------

    # One inter-pod cable run: a rack-to-rack span, several times the
    # 400 ns intra-pod SL3 hop (§2.2 "sub-microsecond" applies inside
    # the pod).  The intra-pod torus stops at the pod boundary; pods
    # are cabled to their neighbours (two pods per rack, racks in a
    # loop), so the pods form a 1-D wraparound ring.  Composite request
    # chains pay this per pod hop between consecutive member rings —
    # what gang placement minimises.
    INTER_POD_HOP_NS = 2_000.0

    def pod_distance(self, a: int, b: int) -> int:
        """Inter-pod hop count over the pod loop (0 for the same pod)."""
        for pod_id in (a, b):
            if not 0 <= pod_id < self.num_pods:
                raise ValueError(
                    f"pod {pod_id} outside deployment of {self.num_pods}"
                )
        gap = abs(a - b)
        return min(gap, self.num_pods - gap)

    # -- manual service (§3.5: "a service ticket is raised") -------------------

    def service_ring(self, slot: RingSlot) -> int:
        """One technician visit to ring ``slot``: swap every broken
        component back to factory state.

        Models the paper's repair half of the failure loop — after the
        Mapping Manager maps out bad hardware "a service ticket is
        raised to replace the faulty components" (§3.5).  Dead or
        crashed servers are replaced (which also replaces their FPGA
        card), failed/unlocked/over-temperature FPGAs get a fresh card,
        miscalibrated DIMMs are reseated, and dark cables touching the
        ring — individually broken links and whole failed assemblies —
        are re-plugged.  Returns the number of components serviced.
        Serviced hardware comes back *unconfigured*; the next deploy of
        the slot reimages it.
        """
        pod = self.pod(slot.pod_id)
        ring_nodes = set(self.topology.ring(slot.ring_x))
        serviced = 0
        for node in ring_nodes:
            server = pod.server_at(node)
            fpga = server.fpga
            if (
                server.state is not ServerState.UP
                or fpga.state is FpgaState.FAILED
                or not fpga.pll_locked
                or fpga.temp_shutdown
            ):
                server.replace()
                serviced += 1
            for controller in server.shell.dram:
                if controller.health.calibration_failed:
                    controller.recalibrate()
                    serviced += 1
        # Cables: pod.links is built in wiring order, so each link's
        # wire spec identifies the nodes it connects.
        for assembly in pod.assemblies.values():
            if assembly.failed and self._assembly_touches(pod, assembly, ring_nodes):
                assembly.repair()
                serviced += 1
        for (src, _sp, dst, _dp), link in zip(pod.wiring.wires, pod.links, strict=True):
            if link.broken and (src in ring_nodes or dst in ring_nodes):
                link.repair_cable()
                serviced += 1
        return serviced

    @staticmethod
    def _assembly_touches(pod: Pod, assembly, ring_nodes: set) -> bool:
        for (src, _sp, dst, _dp), link in zip(pod.wiring.wires, pod.links, strict=True):
            if link in assembly.links and (src in ring_nodes or dst in ring_nodes):
                return True
        return False

    # -- §2.3 manufacturing statistics ------------------------------------------

    def manufacturing_test(
        self,
        card_failure_rate: float = CARD_FAILURE_RATE,
    ) -> ManufacturingReport:
        """Monte Carlo over per-card and per-link defect probabilities.

        Deterministic given the engine seed; reproduces the scale of
        the paper's deployment findings (7 cards, 1 link).
        """
        rng = self.engine.rng.stream("manufacturing")
        failed_sites = []
        for pod_id in range(self.num_pods):
            for node in self.topology.nodes():
                if rng.random() < card_failure_rate:
                    failed_sites.append((RingSlot(pod_id, node[0]), node))
        failed_links = sum(
            1 for _ in range(self.total_links) if rng.random() < LINK_FAILURE_RATE
        )
        return ManufacturingReport(
            total_cards=self.total_servers,
            failed_cards=len(failed_sites),
            total_links=self.total_links,
            failed_links=failed_links,
            failed_card_sites=tuple(failed_sites),
        )

    def __repr__(self) -> str:
        return (
            f"<Datacenter {self.num_pods} pods / {self.racks} racks / "
            f"{self.total_servers} servers ({len(self._pods)} built)>"
        )
