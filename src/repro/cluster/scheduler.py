"""The cluster scheduler: placing services onto rings across pods.

The production deployment (§2.3) ran one service over 1,632 machines —
34 pods, each offering six 8-FPGA rings.  The scheduler owns that
ring-granular resource view: it tracks which :class:`RingSlot`s are
occupied, places new :class:`ServiceDefinition` instances under a
placement policy, and accounts for capacity and spares so operators can
ask "how many more rings can this datacenter absorb?".

Placement policies:

``spread``
    Round-robin across pods — each successive ring lands in the next
    pod with a free slot.  Spreads a service's blast radius across
    power domains and top-of-rack switches (each pod has its own PDU
    and TOR, §2.2).

``pack``
    Fill a pod's rings before opening the next pod.  Minimises the
    number of pods that must be built/powered for small services.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import typing

from repro.cluster.deployment import Deployment, RequestAdapter
from repro.cluster.tenancy import (
    RegionClaim,
    RingTenancy,
    check_region_fit,
    region_node_count,
)
from repro.fabric.datacenter import Datacenter, RingSlot
from repro.hardware.fpga import FpgaState, ReconfigError
from repro.services.mapping_manager import (
    InsufficientRingCapacity,
    MappingManager,
    ServiceDefinition,
)

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.bitstream_cache import BitstreamCache
    from repro.cluster.repair import RepairQueue

PLACEMENT_POLICIES = ("spread", "pack")


class InsufficientClusterCapacity(Exception):
    """More rings requested than the datacenter has free."""


class PlacementFailed(Exception):
    """A chosen slot could not be configured (bad hardware found late).

    Carries the slot so the control plane can cordon it and retry on a
    different ring.
    """

    def __init__(self, slot: RingSlot, cause: Exception, nodes: tuple = ()):
        super().__init__(f"placement on {slot} failed: {cause}")
        self.slot = slot
        self.cause = cause
        # For a region placement: the node run that failed to
        # configure, so the control plane can cordon just that region.
        self.nodes = tuple(nodes)


@dataclasses.dataclass(frozen=True)
class PlacementDecision:
    """One scheduler decision: which service landed on which ring."""

    service: str
    slot: RingSlot
    spares: int


@dataclasses.dataclass(frozen=True)
class PodCapacity:
    """One pod's ring/region accounting inside a :class:`CapacityReport`."""

    pod_id: int
    total_rings: int
    free_rings: int
    occupied_rings: int
    cordoned_rings: int
    tenant_regions: int  # region claims on this pod's shared rings
    cordoned_regions: int  # region-granular cordons (bad node runs)

    def to_dict(self) -> dict:
        """Canonical JSON form (stable keys, plain ints)."""
        return {
            "pod_id": self.pod_id,
            "total_rings": self.total_rings,
            "free_rings": self.free_rings,
            "occupied_rings": self.occupied_rings,
            "cordoned_rings": self.cordoned_rings,
            "tenant_regions": self.tenant_regions,
            "cordoned_regions": self.cordoned_regions,
        }


@dataclasses.dataclass(frozen=True)
class CapacityReport:
    """Ring-granular capacity accounting for the whole datacenter.

    Repair-aware: when a :class:`~repro.cluster.repair.RepairQueue` is
    attached, ``open_tickets`` counts the cordoned rings with a repair
    in flight and ``next_repair_due_ns`` is when the earliest of them
    returns to the pool — so capacity planners can distinguish "gone"
    from "coming back, and when".

    Tenancy-aware: a shared ring hosting region tenants counts as one
    occupied ring; ``tenant_regions`` counts the claims packed onto
    such rings and ``cordoned_regions`` the node runs held out at
    region granularity.  ``per_pod`` breaks every ring/region figure
    down by pod for the packer and future autoscalers (the per-pod
    figures always sum to the datacenter totals).  With a
    :class:`~repro.cluster.bitstream_cache.BitstreamCache` attached,
    ``bitstream_hits``/``bitstream_misses`` attribute re-placement
    speedups to staged images.
    """

    total_rings: int
    occupied_rings: int
    total_spare_nodes: int
    cordoned_rings: int = 0  # held out pending manual service
    open_tickets: int = 0  # cordoned rings with a repair in flight
    next_repair_due_ns: float | None = None
    tenant_regions: int = 0  # region claims across shared rings
    cordoned_regions: int = 0  # region-granular cordons
    bitstream_hits: int = 0
    bitstream_misses: int = 0
    per_pod: dict = dataclasses.field(default_factory=dict)

    @property
    def free_rings(self) -> int:
        return self.total_rings - self.occupied_rings - self.cordoned_rings

    @property
    def serviceable_rings(self) -> int:
        """Rings that are, or will be after repair, available: everything
        except cordoned rings nobody has a ticket for."""
        return self.free_rings + self.occupied_rings + self.open_tickets

    @property
    def utilization(self) -> float:
        return self.occupied_rings / self.total_rings if self.total_rings else 0.0

    def to_dict(self) -> dict:
        """Canonical JSON form: sorted, string-keyed, derived figures
        included.

        ``per_pod`` is keyed by ``str(pod_id)`` in sorted order — JSON
        objects cannot carry int keys, and a canonical order makes the
        serialized report byte-stable across same-seed runs.
        """
        return {
            "total_rings": self.total_rings,
            "occupied_rings": self.occupied_rings,
            "free_rings": self.free_rings,
            "cordoned_rings": self.cordoned_rings,
            "serviceable_rings": self.serviceable_rings,
            "utilization": self.utilization,
            "total_spare_nodes": self.total_spare_nodes,
            "open_tickets": self.open_tickets,
            "next_repair_due_ns": self.next_repair_due_ns,
            "tenant_regions": self.tenant_regions,
            "cordoned_regions": self.cordoned_regions,
            "bitstream_hits": self.bitstream_hits,
            "bitstream_misses": self.bitstream_misses,
            "per_pod": {
                str(pod_id): self.per_pod[pod_id].to_dict()
                for pod_id in sorted(self.per_pod)
            },
        }


class ClusterScheduler:
    """Places service instances onto free torus rings across pods."""

    def __init__(
        self,
        datacenter: Datacenter,
        policy: str = "spread",
        bitstream_cache: "BitstreamCache | None" = None,
    ):
        if policy not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {policy!r}; "
                f"choose from {PLACEMENT_POLICIES}"
            )
        self.datacenter = datacenter
        self.engine = datacenter.engine
        self.policy = policy
        self.decisions: list[PlacementDecision] = []
        self._occupied: dict[RingSlot, Deployment] = {}
        self._cordoned: dict[RingSlot, str] = {}  # slot -> cordon reason
        self._tenancies: dict[RingSlot, RingTenancy] = {}  # shared rings
        self._mapping_managers: dict[int, MappingManager] = {}
        self._next_pod_id = 0  # spread policy's round-robin cursor
        self.repair_queue: "RepairQueue | None" = None
        self.bitstream_cache = bitstream_cache

    # -- resource view ---------------------------------------------------------

    def mapping_manager(self, pod_id: int) -> MappingManager:
        """The (shared, per-pod) mapping manager for ``pod_id``."""
        if pod_id not in self._mapping_managers:
            manager = MappingManager(self.engine, self.datacenter.pod(pod_id))
            manager.bitstream_cache = self.bitstream_cache
            self._mapping_managers[pod_id] = manager
        return self._mapping_managers[pod_id]

    def free_slots(self) -> list[RingSlot]:
        return [
            slot for slot in self.datacenter.ring_slots()
            if slot not in self._occupied
            and slot not in self._cordoned
            and slot not in self._tenancies
        ]

    def tenancy_of(self, slot: RingSlot) -> RingTenancy | None:
        """The shared-ring ledger for ``slot``, if it hosts tenants."""
        return self._tenancies.get(slot)

    def attach_repair_queue(self, queue: "RepairQueue") -> None:
        """Ticket every cordon through ``queue`` from now on.

        With a queue attached, :meth:`cordon` opens a
        :class:`~repro.cluster.repair.ServiceTicket` and the repaired
        slot returns to the pool when the ticket's timer expires — no
        operator :meth:`uncordon` required.  Slots already cordoned at
        attach time are ticketed immediately (they were waiting for
        exactly this).
        """
        if self.repair_queue is not None and self.repair_queue is not queue:
            raise RuntimeError("a repair queue is already attached")
        self.repair_queue = queue
        for slot, reason in self._cordoned.items():
            queue.open_ticket(slot, reason=reason)
        for slot, tenancy in self._tenancies.items():
            if tenancy.cordoned:
                queue.open_ticket(
                    slot, reason=next(iter(tenancy.cordoned.values()))
                )

    def cordon(self, slot: RingSlot, reason: str = "") -> None:
        """Hold ``slot`` out of placement (bad hardware awaiting service).

        Cordoning an occupied or unknown slot raises: an occupied slot
        counts against ``occupied_rings`` already, so also counting it
        cordoned would double-subtract from ``free_rings`` (release it
        first), and an unknown slot is a caller bug.  With a repair
        queue attached a service ticket is opened for the slot.
        """
        if slot not in self.datacenter.ring_slots():
            raise ValueError(f"{slot} is not a ring of this datacenter")
        if slot in self._occupied:
            raise ValueError(f"{slot} is occupied; release it first")
        if slot in self._tenancies:
            raise ValueError(
                f"{slot} is a shared ring; use cordon_region for its "
                "node runs"
            )
        self._cordoned.setdefault(slot, reason)
        if self.repair_queue is not None:
            self.repair_queue.open_ticket(slot, reason=reason)

    def cordon_region(
        self, slot: RingSlot, nodes: collections.abc.Sequence, reason: str = ""
    ) -> None:
        """Hold one region's node run out of ``slot``'s free pool.

        The slot keeps serving its other tenants; only the bad run
        leaves the pool.  With a repair queue attached a (slot-level)
        service ticket is opened — the technician services the whole
        ring's broken components on one visit, which lifts every region
        cordon via :meth:`slot_serviced`.
        """
        if slot not in self.datacenter.ring_slots():
            raise ValueError(f"{slot} is not a ring of this datacenter")
        if slot in self._cordoned:
            raise ValueError(f"{slot} is already cordoned whole")
        tenancy = self._tenancies.get(slot)
        if tenancy is None:
            ring_nodes = [
                server.node_id
                for server in self.datacenter.pod(slot.pod_id).ring(slot.ring_x)
            ]
            tenancy = RingTenancy(slot, ring_nodes)
            self._tenancies[slot] = tenancy
        tenancy.cordon_region(tuple(nodes), reason)
        if self.repair_queue is not None:
            self.repair_queue.open_ticket(slot, reason=reason)

    def slot_serviced(self, slot: RingSlot) -> None:
        """Post-repair hook: ``slot``'s hardware was just serviced.

        Serviced boards come back with empty staging DRAM, so every
        image the bitstream cache had for the ring's nodes is gone; and
        region cordons lift — the bad node runs are bad no longer.
        """
        if self.bitstream_cache is not None:
            for server in self.datacenter.ring_servers(slot):
                self.bitstream_cache.invalidate(server.machine_id)
        tenancy = self._tenancies.get(slot)
        if tenancy is not None:
            tenancy.clear_cordons()
            if tenancy.empty:
                del self._tenancies[slot]

    def uncordon(self, slot: RingSlot) -> None:
        """Return a cordoned slot to the placement pool (post-repair).

        Raises ``KeyError`` for a slot that is not cordoned — silently
        ignoring it let typos pass unnoticed mid-experiment.  A manual
        uncordon cancels the slot's open service ticket, if any (the
        operator serviced it out-of-band).
        """
        if slot not in self._cordoned:
            raise KeyError(f"{slot} is not cordoned")
        del self._cordoned[slot]
        if self.repair_queue is not None:
            self.repair_queue.cancel(slot)

    def cordon_reason(self, slot: RingSlot) -> str:
        """Why ``slot`` is cordoned (raises ``KeyError`` if it is not)."""
        return self._cordoned[slot]

    @property
    def cordoned_slots(self) -> list[RingSlot]:
        return sorted(self._cordoned)

    def is_occupied(self, slot: RingSlot) -> bool:
        """Whether a deployment (or any region tenant) holds ``slot``."""
        if slot in self._occupied:
            return True
        tenancy = self._tenancies.get(slot)
        return tenancy is not None and bool(tenancy.claims)

    def slot_of(self, deployment: Deployment) -> RingSlot:
        """The ring slot ``deployment`` occupies."""
        region = getattr(deployment, "region", None)
        if region is not None:
            tenancy = self._tenancies.get(region.slot)
            if tenancy is not None and tenancy.occupants.get(region.service) is deployment:
                return region.slot
            raise KeyError(f"{deployment.name} is not placed by this scheduler")
        for slot, occupant in self._occupied.items():
            if occupant is deployment:
                return slot
        raise KeyError(f"{deployment.name} is not placed by this scheduler")

    def capacity_report(self) -> CapacityReport:
        queue = self.repair_queue
        cache = self.bitstream_cache
        per_pod: dict[int, PodCapacity] = {}
        by_pod: dict[int, list[RingSlot]] = {}
        for slot in self.datacenter.ring_slots():
            by_pod.setdefault(slot.pod_id, []).append(slot)
        totals = {"occupied": 0, "cordoned": 0, "regions": 0, "region_cordons": 0}
        for pod_id in sorted(by_pod):
            occupied = cordoned = regions = region_cordons = 0
            for slot in by_pod[pod_id]:
                tenancy = self._tenancies.get(slot)
                if tenancy is not None:
                    regions += len(tenancy.claims)
                    region_cordons += len(tenancy.cordoned)
                    if tenancy.claims:
                        occupied += 1
                    else:
                        # Only cordoned node runs remain: the ring is
                        # out of the free pool but hosts nobody.
                        cordoned += 1
                elif slot in self._occupied:
                    occupied += 1
                elif slot in self._cordoned:
                    cordoned += 1
            per_pod[pod_id] = PodCapacity(
                pod_id=pod_id,
                total_rings=len(by_pod[pod_id]),
                free_rings=len(by_pod[pod_id]) - occupied - cordoned,
                occupied_rings=occupied,
                cordoned_rings=cordoned,
                tenant_regions=regions,
                cordoned_regions=region_cordons,
            )
            totals["occupied"] += occupied
            totals["cordoned"] += cordoned
            totals["regions"] += regions
            totals["region_cordons"] += region_cordons
        spares = sum(
            deployment.spare_count for deployment in self._occupied.values()
        )
        spares += sum(
            occupant.spare_count
            for tenancy in self._tenancies.values()
            for occupant in tenancy.occupants.values()
        )
        return CapacityReport(
            total_rings=self.datacenter.total_rings,
            occupied_rings=totals["occupied"],
            total_spare_nodes=spares,
            cordoned_rings=totals["cordoned"],
            open_tickets=len(queue.open_tickets) if queue is not None else 0,
            next_repair_due_ns=queue.next_due_ns() if queue is not None else None,
            tenant_regions=totals["regions"],
            cordoned_regions=totals["region_cordons"],
            bitstream_hits=cache.hits if cache is not None else 0,
            bitstream_misses=cache.misses if cache is not None else 0,
            per_pod=per_pod,
        )

    # -- placement -------------------------------------------------------------

    def _choose_gang(
        self, count: int, policy: str | None = None, chained: bool = True
    ) -> list[RingSlot]:
        """Choose ``count`` free rings under ``policy``.

        By default the rings compose ONE replica (a gang): they are
        chained into one request path, so consecutive members should sit
        on pods that are close on the datacenter's inter-pod loop
        (:meth:`~repro.fabric.datacenter.Datacenter.pod_distance`):

        ``pack``
            Span the fewest pods (ideally one), breaking ties by the
            shortest chained inter-pod path — minimises the cable runs
            a request crosses between stages.  Independent replicas
            (``chained=False``), where only pod diversity matters, take
            the first free rings in pod-major order instead — what
            ``count`` successive one-ring picks give.

        ``spread``
            One ring per pod where capacity allows, on *consecutive*
            pods of the loop starting at the round-robin cursor: blast
            radius still spans power domains, but each stage-to-stage
            hop crosses a single inter-pod run.  Successive calls keep
            rotating across pods instead of restarting at pod 0.

        Raises :class:`InsufficientClusterCapacity` if fewer than
        ``count`` rings are free datacenter-wide.
        """
        policy = policy or self.policy
        if policy not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {policy!r}; "
                f"choose from {PLACEMENT_POLICIES}"
            )
        free = self.free_slots()
        if len(free) < count:
            raise InsufficientClusterCapacity(
                f"need {count} rings, only {len(free)} of "
                f"{self.datacenter.total_rings} free"
            )
        by_pod: dict[int, list[RingSlot]] = {}
        for slot in free:
            by_pod.setdefault(slot.pod_id, []).append(slot)
        num_pods = self.datacenter.num_pods
        if policy == "pack" and not chained:
            ordered = [slot for pod_id in sorted(by_pod) for slot in by_pod[pod_id]]
            return ordered[:count]
        if policy == "pack":
            best: tuple | None = None
            for start in range(num_pods):
                window: list[RingSlot] = []
                pods_used = 0
                for step in range(num_pods):
                    queue = by_pod.get((start + step) % num_pods, [])
                    take = min(len(queue), count - len(window))
                    if take:
                        window.extend(queue[:take])
                        pods_used += 1
                    if len(window) == count:
                        break
                if len(window) < count:
                    continue
                cost = sum(
                    self.datacenter.pod_distance(a.pod_id, b.pod_id)
                    for a, b in zip(window, window[1:], strict=False)
                )
                key = (pods_used, cost, start)
                if best is None or key < best[:3]:
                    best = (*key, window)
            assert best is not None  # len(free) >= count guarantees a window
            return best[3]
        # spread
        chosen: list[RingSlot] = []
        start = self._next_pod_id % num_pods
        while len(chosen) < count:
            took = len(chosen)
            for step in range(num_pods):
                queue = by_pod.get((start + step) % num_pods, [])
                if queue and len(chosen) < count:
                    chosen.append(queue.pop(0))
            assert len(chosen) > took  # len(free) >= count guarantees progress
        self._next_pod_id = chosen[-1].pod_id + 1
        return chosen

    def deploy(
        self,
        service: ServiceDefinition,
        rings: int = 1,
        adapter: RequestAdapter | None = None,
        slots_per_server: int = 48,
        policy: str | None = None,
    ) -> list[Deployment]:
        """Place ``service`` on ``rings`` free rings and configure them.

        Each chosen ring gets its own :class:`Deployment` (sharing the
        pod's mapping manager so failure handling sees every assignment)
        and is fully configured — FPGA images written, RX-Halt released
        — before this returns.  ``policy`` overrides the scheduler-wide
        placement policy for this call (the control plane places each
        service under its spec's policy).  Top-level only; a process
        uses :meth:`place_rings`.
        """
        return self.engine.drive(
            self.place_rings(
                service, rings, adapter, slots_per_server, policy, chained=False
            )
        )

    def deploy_gang(
        self,
        service: ServiceDefinition,
        rings: int,
        adapter: RequestAdapter | None = None,
        slots_per_server: int = 48,
        policy: str | None = None,
    ) -> list[Deployment]:
        """Place ONE composite replica: ``rings`` member rings, all or
        nothing.

        Members are chosen link-aware, in chain order, and configured
        like :meth:`deploy`; a configure failure on any member rolls the
        whole gang back before re-raising, so a replica never comes up
        partially placed.  The returned list is in chain order — the
        caller wires it into a
        :class:`~repro.cluster.composite.CompositeDeployment`.
        """
        return self.engine.drive(
            self.place_rings(service, rings, adapter, slots_per_server, policy)
        )

    def place_rings(
        self,
        service: ServiceDefinition,
        rings: int,
        adapter: RequestAdapter | None = None,
        slots_per_server: int = 48,
        policy: str | None = None,
        chained: bool = True,
    ) -> collections.abc.Generator:
        """Choose and configure ``rings`` whole rings (a generator);
        returns their deployments in chain order."""
        if rings < 1:
            raise ValueError(f"need at least one ring, got {rings}")
        chosen = self._choose_gang(rings, policy, chained)
        return (yield from self._configure(service, chosen, adapter, slots_per_server))

    def _configure(
        self,
        service: ServiceDefinition,
        chosen: list[RingSlot],
        adapter: RequestAdapter | None,
        slots_per_server: int,
        region: RegionClaim | None = None,
    ) -> collections.abc.Generator:
        """Configure a deployment of ``service`` on each chosen slot (as
        the ``region`` tenant, if given), all or nothing (a generator);
        returns the deployments in ``chosen`` order.

        Rings in *different* pods reconfigure concurrently, in waves of
        one slot per pod — a ~1 s full-ring reload per wave instead of
        per ring, which is what bounds gang re-placement time after a
        replica failure.  Rings in the *same* pod stay serial: same-pod
        deploys share the spare-image configure work and the FPGA
        rejects overlapping reconfigurations.  Each deployment holds its
        slot (or region claim) from the moment its wave starts.  Any
        configure failure rolls back every deployment before raising
        ``PlacementFailed``, so a partial placement leaks no capacity.
        """
        nodes = region.nodes if region is not None else ()
        by_pod: dict[int, list[RingSlot]] = {}
        for slot in chosen:
            by_pod.setdefault(slot.pod_id, []).append(slot)
        placed: dict[RingSlot, Deployment] = {}
        failure: PlacementFailed | None = None
        while failure is None and any(by_pod.values()):
            waits = []
            for slot in [queue.pop(0) for queue in by_pod.values() if queue]:
                placed[slot] = deployment = Deployment(
                    self.engine,
                    self.datacenter.pod(slot.pod_id),
                    service,
                    ring_x=slot.ring_x,
                    adapter=adapter,
                    mapping_manager=self.mapping_manager(slot.pod_id),
                    slots_per_server=slots_per_server,
                    region=region,
                )
                if region is None:
                    self._occupied[slot] = deployment
                else:
                    self._tenancies[slot].occupants[region.service] = deployment
                try:
                    waits.append((slot, deployment.configure()))
                except InsufficientRingCapacity as exc:
                    failure = PlacementFailed(slot, exc, nodes)
                    break
            # Settle every configure this wave launched (they progress
            # concurrently) even after a failure, so rollback acts on
            # stable state rather than racing in-flight reconfigures.
            for slot, wait in waits:
                try:
                    yield from wait
                except (InsufficientRingCapacity, ReconfigError) as exc:
                    failure = failure or PlacementFailed(slot, exc, nodes)
        if failure is not None:
            for deployment in placed.values():
                self.release(deployment)
            raise failure
        # Logged in chain order, and only for placements that stuck — a
        # rolled-back ring was never really placed.
        self.decisions.extend(
            PlacementDecision(
                service=service.name,
                slot=slot,
                spares=placed[slot].spare_count,
            )
            for slot in chosen
        )
        return [placed[slot] for slot in chosen]

    # -- region tenancy (shared rings) -----------------------------------------

    def deploy_region(
        self,
        service: ServiceDefinition,
        fraction: float,
        priority: str = "batch",
        adapter: RequestAdapter | None = None,
        slots_per_server: int = 48,
    ) -> Deployment:
        """Place ``service`` as a region tenant on a shared ring.

        First-fit: the first already-shared ring (in slot order) with a
        large-enough free node run takes the claim; otherwise the first
        free ring opens as a new shared ring.  One claim per service
        per ring, so a service's replicas land on different rings.
        Raises :class:`InsufficientClusterCapacity` when no ring can
        host the region, and :class:`PlacementFailed` (carrying the
        region's nodes) when the chosen run fails to configure.
        Top-level only; a process uses :meth:`place_region`.
        """
        return self.engine.drive(
            self.place_region(service, fraction, priority, adapter, slots_per_server)
        )

    def place_region(
        self,
        service: ServiceDefinition,
        fraction: float,
        priority: str = "batch",
        adapter: RequestAdapter | None = None,
        slots_per_server: int = 48,
    ) -> collections.abc.Generator:
        """:meth:`deploy_region` as a generator; returns the deployment."""
        chosen: RingSlot | None = None
        tenancy: RingTenancy | None = None
        node_count = 0
        for slot in sorted(self._tenancies):
            candidate = self._tenancies[slot]
            count = region_node_count(service, fraction, len(candidate.ring_nodes))
            if candidate.can_host(service.name, count):
                chosen, tenancy, node_count = slot, candidate, count
                break
        if chosen is None:
            free = self.free_slots()
            if not free:
                raise InsufficientClusterCapacity(
                    f"no ring with a free {fraction:.2f} region for "
                    f"{service.name!r}"
                )
            chosen = free[0]
            ring_nodes = [
                server.node_id
                for server in self.datacenter.pod(chosen.pod_id).ring(chosen.ring_x)
            ]
            tenancy = RingTenancy(chosen, ring_nodes)
            node_count = region_node_count(service, fraction, len(ring_nodes))
            if node_count > len(ring_nodes):
                raise InsufficientClusterCapacity(
                    f"service {service.name!r} needs {node_count} nodes, "
                    f"rings have {len(ring_nodes)}"
                )
            self._tenancies[chosen] = tenancy
        pod = self.datacenter.pod(chosen.pod_id)
        check_region_fit(service, pod.server_at(tenancy.ring_nodes[0]).fpga.device)
        claim = tenancy.claim(
            service.name, fraction, priority, node_count, slots_per_server
        )
        (deployment,) = yield from self._configure(
            service, [chosen], adapter, slots_per_server, claim
        )
        return deployment

    def preemption_victim(
        self, service: ServiceDefinition, fraction: float
    ) -> Deployment | None:
        """A batch tenant whose eviction would make room for ``service``.

        Scans shared rings in slot order; on each, batch-priority
        claims in claim order.  Returns the first occupant whose region
        plus the ring's current free run covers the needed node count —
        or ``None`` when no eviction helps (the caller records a
        shortfall instead of evicting pointlessly).
        """
        for slot in sorted(self._tenancies):
            tenancy = self._tenancies[slot]
            if service.name in tenancy.claims:
                continue
            needed = region_node_count(service, fraction, len(tenancy.ring_nodes))
            for name in sorted(tenancy.claims):
                claim = tenancy.claims[name]
                if claim.priority != "batch":
                    continue
                occupant = tenancy.occupants.get(name)
                if occupant is None:
                    continue
                if len(tenancy.free_nodes()) + len(claim.nodes) >= needed:
                    return occupant
        return None

    def release(self, deployment: Deployment) -> RingSlot:
        """Return a deployment's ring to the free pool (scale-down).

        Deregisters the ring's assignment from the pod's mapping manager
        so later failure reports no longer act on it, detaches the
        service's roles from the surviving nodes (each reverts to the
        service's passthrough spare, keeping the torus routable), and
        marks the deployment released so stale handles can no longer
        dispatch.  The freed slot is immediately redeployable — the next
        deploy reconfigures the ring with the new service's images, with
        any permanently failed hardware pre-mapped-out.

        A region tenant's release frees only its claim: the tenancy
        (and the ring) persists while other tenants or region cordons
        remain.
        """
        region: RegionClaim | None = getattr(deployment, "region", None)
        if region is None:
            slot = self.slot_of(deployment)
            del self._occupied[slot]
        else:
            slot = region.slot
            tenancy = self._tenancies.get(slot)
            if tenancy is None or tenancy.occupants.get(region.service) is not deployment:
                raise KeyError(f"{deployment.name} is not placed by this scheduler")
            del tenancy.occupants[region.service]
            tenancy.release(region)
            if tenancy.empty:
                del self._tenancies[slot]
        manager = deployment.mapping_manager
        if deployment.assignment in manager.assignments:
            manager.assignments.remove(deployment.assignment)
        assignment = deployment.assignment
        if assignment is not None:
            spare = deployment.service.spare
            for node in assignment.ring_nodes:
                if node in assignment.excluded:
                    continue
                server = deployment.pod.server_at(node)
                if server.fpga.state is FpgaState.CONFIGURED:
                    server.shell.attach_role(spare.factory(assignment, spare.name))
        if region is not None:
            deployment.release_slots()
        deployment.released = True
        return slot

    def __repr__(self) -> str:
        report = self.capacity_report()
        return (
            f"<ClusterScheduler {self.policy} "
            f"{report.occupied_rings}/{report.total_rings} rings>"
        )
