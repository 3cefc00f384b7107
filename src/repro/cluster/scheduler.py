"""The cluster scheduler: placing services onto rings across pods.

The production deployment (§2.3) ran one service over 1,632 machines —
34 pods, each offering six 8-FPGA rings.  The scheduler owns that
resource view as one ledger of region claims per ring
(:mod:`repro.cluster.tenancy`): a whole ring, a gang member and a
tenant each hold one claim, and a cordon holds bad nodes out.  It
places new :class:`ServiceDefinition` instances, and accounts for
capacity and spares so operators can ask "how many more rings can this
datacenter absorb?".

Whole rings are *spread*: round-robin across pods, each successive ring
in the next pod with a free one.  That spreads a service's blast radius
across power domains and top-of-rack switches (each pod has its own PDU
and TOR, §2.2); a gang's consecutive members land on neighbouring pods.
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

class InsufficientClusterCapacity(Exception):
    """More rings requested than the datacenter has free."""


class PlacementFailed(Exception):
    """A chosen claim could not be configured (bad hardware found late).

    Carries the slot and the claim's nodes so the control plane can
    cordon exactly those nodes and retry elsewhere.
    """

    def __init__(self, slot: RingSlot, cause: Exception, nodes: tuple):
        super().__init__(f"placement on {slot} failed: {cause}")
        self.slot = slot
        self.cause = cause
        self.nodes = tuple(nodes)


@dataclasses.dataclass(frozen=True)
class PodCapacity:
    """One pod's ring/region accounting inside a :class:`CapacityReport`."""

    pod_id: int
    total_rings: int
    free_rings: int
    occupied_rings: int
    cordoned_rings: int
    tenant_regions: int  # tenant claims (not whole rings or gang members)
    cordoned_regions: int  # cordons narrower than their ring (bad node runs)

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

    Tenancy-aware: a ring holding any claim counts as one occupied
    ring; ``tenant_regions`` counts the tenants' claims (not whole
    rings or gang members) and ``cordoned_regions`` the cordons
    narrower than their ring.  ``per_pod`` breaks every ring/region figure
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
    tenant_regions: int = 0  # tenant claims (not whole rings or gang members)
    cordoned_regions: int = 0  # cordons narrower than their ring
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
    """Places service instances as region claims on rings across pods."""

    def __init__(
        self, datacenter: Datacenter, bitstream_cache: "BitstreamCache | None" = None
    ):
        self.datacenter = datacenter
        self.engine = datacenter.engine
        # The one ledger: every ring that holds a claim or a cordon.
        self._rings: dict[RingSlot, RingTenancy] = {}
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
        """Rings with no claim and no cordon, in slot order."""
        return [slot for slot in self.datacenter.ring_slots() if slot not in self._rings]

    def tenancy_of(self, slot: RingSlot) -> RingTenancy | None:
        """The ledger entry for ``slot``, if it holds a claim or a cordon."""
        return self._rings.get(slot)

    def _tenancy(self, slot: RingSlot) -> RingTenancy:
        """``slot``'s ledger entry, opened by its first claim or cordon."""
        tenancy = self._rings.get(slot)
        if tenancy is None:
            tenancy = RingTenancy(slot, self.datacenter.topology.ring(slot.ring_x))
            self._rings[slot] = tenancy
        return tenancy

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
        for slot, tenancy in self._rings.items():
            if tenancy.cordoned:
                queue.open_ticket(slot, reason=next(iter(tenancy.cordoned.values())))

    def cordon(
        self,
        slot: RingSlot,
        nodes: collections.abc.Sequence | None = None,
        reason: str = "",
    ) -> None:
        """Hold ``nodes`` of ``slot`` — by default the whole ring — out
        of placement (bad hardware awaiting service).

        The ring's claims on other nodes keep serving.  Cordoning a
        claimed node or an unknown slot raises: a claimed node counts
        as occupied already, so also counting it cordoned would
        double-subtract from ``free_rings`` (release it first), and an
        unknown slot is a caller bug.  With a repair queue attached a
        (slot-level) service ticket is opened — the technician services
        the whole ring's broken components on one visit.
        """
        if slot not in self.datacenter.ring_slots():
            raise ValueError(f"{slot} is not a ring of this datacenter")
        if nodes is None:
            nodes = self.datacenter.topology.ring(slot.ring_x)
        held = self._rings.get(slot)
        if held is not None and held.claimed_nodes.intersection(nodes):
            raise ValueError(f"{slot} is occupied; release it first")
        self._tenancy(slot).cordon_region(tuple(nodes), reason)
        if self.repair_queue is not None:
            self.repair_queue.open_ticket(slot, reason=reason)

    def uncordon(self, slot: RingSlot) -> None:
        """Return every cordoned node of ``slot`` to the placement pool:
        the ring's hardware was just serviced.

        Raises ``KeyError`` for a slot that holds no cordon — silently
        ignoring it let typos pass unnoticed mid-experiment.  Cancels
        the slot's open service ticket, if any (the operator serviced
        it out-of-band).
        """
        self.cordon_reason(slot)  # raises KeyError unless cordoned
        tenancy = self._rings[slot]
        tenancy.clear_cordons()
        if tenancy.empty:
            del self._rings[slot]
        if self.repair_queue is not None:
            self.repair_queue.cancel(slot)

    def cordon_reason(self, slot: RingSlot) -> str:
        """Why ``slot`` is cordoned (raises ``KeyError`` if it is not)."""
        tenancy = self._rings.get(slot)
        if tenancy is None or not tenancy.cordoned:
            raise KeyError(f"{slot} is not cordoned")
        return next(iter(tenancy.cordoned.values()))

    @property
    def cordoned_slots(self) -> list[RingSlot]:
        """Rings cordoned whole."""
        return sorted(
            slot
            for slot, tenancy in self._rings.items()
            if not all(map(tenancy.narrower, tenancy.cordoned))
        )

    def slot_of(self, deployment: Deployment) -> RingSlot:
        """The ring slot ``deployment`` occupies."""
        region = deployment.region
        tenancy = self._rings.get(region.slot)
        if tenancy is None or tenancy.occupants.get(region.service) is not deployment:
            raise KeyError(f"{deployment.name} is not placed by this scheduler")
        return region.slot

    def capacity_report(self) -> CapacityReport:
        queue = self.repair_queue
        cache = self.bitstream_cache
        per_pod: dict[int, PodCapacity] = {}
        by_pod: dict[int, list[RingSlot]] = {}
        for slot in self.datacenter.ring_slots():
            by_pod.setdefault(slot.pod_id, []).append(slot)
        for pod_id in sorted(by_pod):
            occupied = cordoned = regions = region_cordons = 0
            for slot in by_pod[pod_id]:
                tenancy = self._rings.get(slot)
                if tenancy is None:
                    continue
                regions += sum(not claim.whole for claim in tenancy.claims.values())
                region_cordons += sum(map(tenancy.narrower, tenancy.cordoned))
                if tenancy.claims:
                    occupied += 1
                else:
                    # Only cordons remain: the ring is out of the free
                    # pool but hosts nobody.
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
        pods = per_pod.values()
        return CapacityReport(
            total_rings=self.datacenter.total_rings,
            occupied_rings=sum(pod.occupied_rings for pod in pods),
            total_spare_nodes=sum(
                occupant.spare_count
                for tenancy in self._rings.values()
                for occupant in tenancy.occupants.values()
            ),
            cordoned_rings=sum(pod.cordoned_rings for pod in pods),
            open_tickets=len(queue.open_tickets) if queue is not None else 0,
            next_repair_due_ns=queue.next_due_ns() if queue is not None else None,
            tenant_regions=sum(pod.tenant_regions for pod in pods),
            cordoned_regions=sum(pod.cordoned_regions for pod in pods),
            bitstream_hits=cache.hits if cache is not None else 0,
            bitstream_misses=cache.misses if cache is not None else 0,
            per_pod=per_pod,
        )

    # -- placement -------------------------------------------------------------

    def _choose_gang(self, count: int) -> list[RingSlot]:
        """Choose ``count`` free rings, spread across pods.

        One ring per pod where capacity allows, on *consecutive* pods of
        the datacenter's inter-pod loop starting at the round-robin
        cursor: a service's blast radius spans power domains, and when
        the rings compose one replica (a gang linked into one request
        path) each stage-to-stage hop crosses a single inter-pod run
        (:meth:`~repro.fabric.datacenter.Datacenter.pod_distance`).
        Successive calls keep rotating across pods instead of
        restarting at pod 0.

        Raises :class:`InsufficientClusterCapacity` if fewer than
        ``count`` rings are free datacenter-wide.
        """
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

    def deploy(self, service: ServiceDefinition, **placement) -> list[Deployment]:
        """:meth:`place` from top level; returns the deployments, each
        fully configured — FPGA images written, RX-Halt released.
        Top-level only; a process uses :meth:`place`."""
        return self.engine.drive(self.place(service, **placement))

    def place(
        self,
        service: ServiceDefinition,
        rings: int = 1,
        adapter: RequestAdapter | None = None,
        slots_per_server: int = 48,
        fraction: float | None = None,
        priority: str = "batch",
    ) -> collections.abc.Generator:
        """Claim ``rings`` regions for ``service`` on distinct rings and
        configure them, all or nothing (a generator); returns their
        deployments in chain order.

        Each claim is a whole ring, or with ``fraction`` a ``priority``
        tenant's region of that share of a ring.  First fit: the partly
        used rings, in slot order, take claims first — one per service
        per ring, so a service's replicas land on different rings; a
        whole ring never fits one.  The rest open fresh rings: whole
        rings spread across pods (:meth:`_choose_gang`); tenants the
        first free rings in slot order.  Every deployment shares its pod's
        mapping manager, so failure handling sees every assignment.

        Raises :class:`InsufficientClusterCapacity` when the claims do
        not fit, and :class:`PlacementFailed` (carrying the failed
        claim's nodes) when one fails to configure; a failure rolls
        every claim of the call back first, so a replica never comes
        up partially placed.
        """
        if rings < 1:
            raise ValueError(f"need at least one ring, got {rings}")
        ring_size = len(self.datacenter.topology.ring(0))
        whole = fraction is None
        count = ring_size if whole else region_node_count(service, fraction, ring_size)
        chosen = [
            slot
            for slot in sorted(self._rings)
            if self._rings[slot].can_host(service.name, count)
        ][:rings]
        missing = rings - len(chosen)
        if whole:
            chosen += self._choose_gang(missing)
        else:
            free = self.free_slots()
            if len(free) < missing:
                raise InsufficientClusterCapacity(
                    f"no ring with a free {fraction:.2f} region for "
                    f"{service.name!r}"
                )
            if count > ring_size:
                raise InsufficientClusterCapacity(
                    f"service {service.name!r} needs {count} nodes, "
                    f"rings have {ring_size}"
                )
            chosen += free[:missing]
            check_region_fit(
                service, self.datacenter.ring_servers(chosen[0])[0].fpga.device
            )

        def claim(tenancy: RingTenancy) -> RegionClaim:
            if whole:
                return tenancy.claim_whole(service.name, slots_per_server)
            return tenancy.claim(
                service.name, fraction, priority, count, slots_per_server
            )

        return (yield from self._configure(service, chosen, claim, adapter))

    def _configure(
        self,
        service: ServiceDefinition,
        chosen: list[RingSlot],
        claim: collections.abc.Callable[[RingTenancy], RegionClaim],
        adapter: RequestAdapter | None,
    ) -> collections.abc.Generator:
        """Claim and configure a deployment of ``service`` on each chosen
        slot, all or nothing (a generator); returns the deployments in
        ``chosen`` order.

        Rings in *different* pods reconfigure concurrently, in waves of
        one slot per pod — a ~1 s full-ring reload per wave instead of
        per ring, which is what bounds gang re-placement time after a
        replica failure.  Rings in the *same* pod stay serial: same-pod
        deploys share the spare-image configure work and the FPGA
        rejects overlapping reconfigurations.  Each deployment holds its
        claim from the moment its wave starts.  Any configure failure
        rolls back every deployment before raising ``PlacementFailed``,
        so a partial placement leaks no capacity.
        """
        by_pod: dict[int, list[RingSlot]] = {}
        for slot in chosen:
            by_pod.setdefault(slot.pod_id, []).append(slot)
        placed: dict[RingSlot, Deployment] = {}
        failure: PlacementFailed | None = None
        while failure is None and any(by_pod.values()):
            waits = []
            for slot in [queue.pop(0) for queue in by_pod.values() if queue]:
                tenancy = self._tenancy(slot)
                placed[slot] = deployment = Deployment(
                    self.engine,
                    self.datacenter.pod(slot.pod_id),
                    service,
                    ring_x=slot.ring_x,
                    adapter=adapter,
                    mapping_manager=self.mapping_manager(slot.pod_id),
                    region=claim(tenancy),
                )
                tenancy.occupants[service.name] = deployment
                try:
                    waits.append((slot, deployment.configure()))
                except InsufficientRingCapacity as exc:
                    failure = PlacementFailed(slot, exc, deployment.region.nodes)
                    break
            # Settle every configure this wave launched (they progress
            # concurrently) even after a failure, so rollback acts on
            # stable state rather than racing in-flight reconfigures.
            for slot, wait in waits:
                try:
                    yield from wait
                except (InsufficientRingCapacity, ReconfigError) as exc:
                    failure = failure or PlacementFailed(
                        slot, exc, placed[slot].region.nodes
                    )
        if failure is not None:
            for deployment in placed.values():
                self.release(deployment)
            raise failure
        return [placed[slot] for slot in chosen]

    def preemption_victim(
        self, service: ServiceDefinition, fraction: float | None
    ) -> Deployment | None:
        """A batch tenant whose eviction would make room for a
        ``fraction`` region of ``service``.

        Scans the ledger in slot order; on each ring, batch-priority
        claims in claim order.  Returns the first occupant whose region
        plus the ring's current free nodes covers the needed node count
        — or ``None`` when no eviction helps (the caller records a
        shortfall instead of evicting pointlessly) and for a whole-ring
        request (``fraction`` of ``None``), which never preempts.
        """
        if fraction is None:
            return None
        for slot in sorted(self._rings):
            tenancy = self._rings[slot]
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
        """Return a deployment's claim to the free pool (scale-down).

        Deregisters the ring's assignment from the pod's mapping manager
        so later failure reports no longer act on it, detaches the
        service's roles from the surviving nodes (each reverts to the
        service's passthrough spare, keeping the torus routable), hands
        the deployment's slot leases back to the shared allocators, and
        marks the deployment released so stale handles can no longer
        dispatch.  The freed nodes are immediately redeployable — the
        next placement reconfigures them with the new service's images,
        with any permanently failed hardware pre-mapped-out.  The ring's
        other claims and cordons stay.
        """
        region = deployment.region
        slot = self.slot_of(deployment)
        tenancy = self._rings[slot]
        del tenancy.occupants[region.service]
        tenancy.release(region)
        if tenancy.empty:
            del self._rings[slot]
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
        deployment.release_slots()
        deployment.released = True
        return slot

    def __repr__(self) -> str:
        report = self.capacity_report()
        return (
            f"<ClusterScheduler {report.occupied_rings}/{report.total_rings} rings>"
        )
