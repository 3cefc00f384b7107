"""A generic per-ring service deployment.

The paper's production deployment maps one service instance onto one
torus ring and scales by deploying many rings across many pods (§2.3:
1,632 machines serving Bing ranking).  :class:`Deployment` is the
reusable per-ring handle the scheduler builds for every placement: it
wraps a :class:`MappingManager` deploy of one :class:`ServiceDefinition`
onto one region claim of a ring — every node of it, unless the service
is a tenant — started by :meth:`configure`, and owns its one dispatch
body, :meth:`submit` — take a slot lease from the injection server's
pool, do the host-side prep, inject to the head node, wait for the
response.  Every request to the ring goes through it: the front-end
load balancer behind ``manager.endpoint(name)`` (the open-loop traffic
of Figures 14–15), and the §5 closed-loop threads of Figures 8–13 — an
:class:`~repro.workloads.openloop.OpenLoopInjector` over the deployment
with a :class:`~repro.workloads.openloop.ClosedLoop` population, which
pins ``server`` and ``include_prep``.

Service-specific concerns (what payload rides the fabric, what
host-side software work precedes injection) are factored into a
:class:`RequestAdapter` so non-ranking services reuse the machinery
unchanged.
"""

from __future__ import annotations

import collections.abc
import itertools

from repro.analysis import ReservoirSample, ThroughputMeter
from repro.cluster.tenancy import RegionClaim, RingTenancy
from repro.fabric.datacenter import RingSlot
from repro.fabric.pod import Pod
from repro.fabric.server import Server
from repro.host.slots import RequestTimeout, SlotLease, shared_slot_allocator
from repro.services.mapping_manager import (
    MappingManager,
    RingAssignment,
    ServiceDefinition,
)
from repro.sim import Engine, Event, Store
from repro.sim.units import SEC


class RequestAdapter:
    """Translates generic dispatch into service-specific wire traffic.

    The default adapter sends the request object itself with a nominal
    size and performs no host-side preparation; services override the
    three hooks (ranking overrides all of them — SSD lookup and
    hit-vector prep on a CPU core, §4).
    """

    def payload_for(self, request: object) -> object:
        return request

    def size_of(self, request: object) -> int:
        return getattr(request, "size_bytes", 64)

    def prep(self, server: Server) -> collections.abc.Generator:
        """Host-side software portion before injection (a generator)."""
        if False:  # pragma: no cover - makes the default a generator
            yield
        return


def _expire_lease_wait(get: Event) -> None:
    """A contended lease wait reached its deadline: abandon the claim, so
    the store hands a late lease to the next waiter, and fail it.  A
    lease granted earlier at the deadline's own instant stands: the
    request goes on with it."""
    if get.triggered:
        return
    get.cancelled = True
    get.fail(RequestTimeout("no slot lease in time"))


class Deployment:
    """One service deployed on one region claim of one ring of one pod.

    Without a ``region`` the deployment claims the whole ring for
    itself.
    """

    def __init__(
        self,
        engine: Engine,
        pod: Pod,
        service: ServiceDefinition,
        ring_x: int = 0,
        adapter: RequestAdapter | None = None,
        mapping_manager: MappingManager | None = None,
        slots_per_server: int = 48,
        region: RegionClaim | None = None,
    ):
        self.engine = engine
        self.pod = pod
        self.service = service
        self.ring_x = ring_x
        self.adapter = adapter or RequestAdapter()
        self.mapping_manager = mapping_manager or MappingManager(engine, pod)
        self.region = region or RingTenancy(
            RingSlot(pod.pod_id, ring_x), pod.topology.ring(ring_x)
        ).claim_whole(service.name, slots_per_server)
        # Whole rings keep the bare ring name; the metrics series key on it.
        self.name = f"{service.name}@pod{pod.pod_id}/ring{ring_x}"
        if not self.region.whole:
            self.name += f"/region{self.region.index}"
        self.assignment: RingAssignment | None = None
        self.released = False  # set when the scheduler reclaims the ring
        self.meter = ThroughputMeter(engine)
        self.latencies_ns = ReservoirSample()
        self.completed = 0
        self.timeouts = 0
        self.outstanding = 0  # dispatched via submit(), not yet resolved
        self._lease_stores: dict[str, Store] = {}
        self._owned_slots: list[tuple[Server, list[int]]] = []
        self._injection_cycle: collections.abc.Iterator[Server] | None = None

    # -- deployment ------------------------------------------------------------

    def configure(self) -> collections.abc.Generator:
        """Start configuring now; returns the generator that waits it
        out and adopts the assignment.  Starting eagerly lets the
        scheduler overlap the ~1 s reconfigurations of rings in
        different pods.  Only the claim's nodes are configured.
        """
        done = self.mapping_manager.deploy(
            self.service, self.ring_x, nodes=list(self.region.nodes)
        )

        def adopt() -> collections.abc.Generator:
            self.assignment = yield done
            return self.assignment

        return adopt()

    @property
    def head_node(self):
        return self.assignment.head_node()

    def stage_role(self, role_name: str):
        node = self.assignment.node_of(role_name)
        return self.pod.server_at(node).shell.role

    # -- health / capacity -----------------------------------------------------

    def health_weight(self) -> float:
        """Healthy fraction of the ring; 0 while undeployed or unservable.

        Excluded (mapped-out) nodes lower the weight, so the
        weighted-by-health balancing policy steers load away from rings
        running degraded after failures.  A released ring or one whose
        failures exhausted the spares weighs nothing.
        """
        if self.assignment is None or self.released or not self.assignment.servable:
            return 0.0
        healthy = [
            node
            for node in self.assignment.ring_nodes
            if node not in self.assignment.excluded
        ]
        if len(healthy) < len(self.service.roles):
            return 0.0
        return len(healthy) / len(self.assignment.ring_nodes)

    @property
    def spare_count(self) -> int:
        if self.assignment is None:
            return 0
        return len(self.assignment.spare_nodes)

    def injection_servers(self) -> list[Server]:
        """The ring's servers, which host the injecting threads (§5)."""
        return self.pod.ring(self.ring_x)

    # -- single-request dispatch (front-end path) ------------------------------

    def _leases(self, server: Server) -> Store:
        store = self._lease_stores.get(server.machine_id)
        if store is None:
            # Draw the claim's slot quota from the server's shared
            # allocator, so slot ids never collide with a co-resident
            # tenant's or with a predecessor's unfinished request.
            store = Store(self.engine, name=f"leases:{self.name}:{server.machine_id}")
            quota = min(self.region.slot_quota, server.buffers.slot_count)
            slot_ids = shared_slot_allocator(server).acquire(
                quota, owner=self.name, owner_obj=self
            )
            self._owned_slots.append((server, slot_ids))
            for slot_id in slot_ids:
                store.try_put(SlotLease(server, slot_id))
            self._lease_stores[server.machine_id] = store
        return store

    def release_slots(self) -> None:
        """Return the quota slots to the shared allocators.

        Called by the scheduler on release so a successor on the same
        servers can acquire a full quota.  Only idle slots (their
        leases back in the pool) are freed here; a slot still held by
        an in-flight request or a quarantine drain is handed over to
        that work, which frees it when it finishes (:meth:`_recycle`).
        """
        for server, slot_ids in self._owned_slots:
            allocator = shared_slot_allocator(server)
            store = self._lease_stores[server.machine_id]
            idle = {lease.slot_id for lease in store.items}
            allocator.release(slot_id for slot_id in slot_ids if slot_id in idle)
            allocator.hand_over(slot_id for slot_id in slot_ids if slot_id not in idle)
        self._owned_slots.clear()
        self._lease_stores.clear()

    def _recycle(self, server: Server, lease, store: Store) -> None:
        """Put a finished lease back in the pool, or, once the
        deployment has been released, its slot back in the allocator."""
        if self.released:
            shared_slot_allocator(server).release([lease.slot_id])
        else:
            store.try_put(lease)

    def _next_injection_server(self) -> Server:
        if self._injection_cycle is None:
            self._injection_cycle = itertools.cycle(self.injection_servers())
        return next(self._injection_cycle)

    def submit(
        self,
        request: object,
        server: Server | None = None,
        timeout_ns: float = 5 * SEC,
        arrived_ns: float | None = None,
        include_prep: bool = True,
    ) -> collections.abc.Generator:
        """Dispatch one request through this ring (a generator).

        Acquires a slot lease on an injection server (round-robin over
        the ring unless ``server`` is given), performs the adapter's
        host-side prep, injects to the head node, and waits for the
        response.  Returns the response payload, or ``None`` on a
        fabric timeout.  Latency is recorded from ``arrived_ns`` (the
        open-loop arrival instant) so queueing delay is included.

        The lease wait itself is bounded by ``timeout_ns`` too, by a
        deadline in ``engine.deadlines``: on a ring whose leases were
        all quarantined by earlier timeouts (a dead ring), later
        submissions resolve as timeouts instead of blocking forever —
        the §3.2 "host will time out and divert the request" path
        applied at admission.
        """
        if self.assignment is None:
            raise RuntimeError(f"{self.name}: submit() before configure() finished")
        if self.released:
            raise RuntimeError(f"{self.name}: submit() after release")
        server = server or self._next_injection_server()
        arrived = arrived_ns if arrived_ns is not None else self.engine.now
        self.outstanding += 1
        store = self._leases(server)
        quarantined = False
        try:
            get = store.get()
            if not get.triggered:
                # Contended: bound the wait.  A kill cancels the claim
                # as the expiry does, so no late lease is handed to a
                # departed waiter (and thereby lost).
                deadlines = self.engine.deadlines
                deadline = deadlines.arm(timeout_ns, _expire_lease_wait, get)
                try:
                    yield get
                except RequestTimeout:
                    self.timeouts += 1
                    return None
                finally:
                    # Disarm the deadline so it does not keep a bare
                    # run() alive for the full timeout after the wait
                    # resolved.
                    deadlines.disarm(deadline)
            lease = get.value
            try:
                if include_prep:
                    yield from self.adapter.prep(server)
                try:
                    response = yield from lease.request(
                        dst=self.head_node,
                        size_bytes=self.adapter.size_of(request),
                        payload=self.adapter.payload_for(request),
                        timeout_ns=timeout_ns,
                    )
                except RequestTimeout:
                    self.timeouts += 1
                    quarantined = True
                    self._quarantine(server, lease, store)
                    return None
                except GeneratorExit:
                    # Killed in flight: the response may still land in
                    # the slot, so the lease waits for it like a timed-
                    # out one.
                    quarantined = True
                    self._quarantine(server, lease, store)
                    raise
                self.latencies_ns.append(self.engine.now - arrived)
                self.completed += 1
                self.meter.record()
                return response
            finally:
                # Never yield here: a killed request (GeneratorExit)
                # must finish without waiting.
                if not quarantined:
                    self._recycle(server, lease, store)
        finally:
            self.outstanding -= 1

    def _quarantine(self, server: Server, lease, store: Store) -> None:
        """Hold a timed-out (or killed) lease out of the pool until its
        slot drains.

        The abandoned request's response may still arrive; left in the
        lease's output slot it would be taken as the *next* request's
        response.  A process waits for the slot to fill-and-drain
        before recycling the lease — or, once the deployment has been
        released, before returning the slot to the shared allocator.
        If the response was truly lost in the fabric, the slot stays
        retired.
        """

        def drain() -> collections.abc.Generator:
            yield server.buffers.consume_output(lease.slot_id)
            self._recycle(server, lease, store)

        # Not a daemon: a blocked process does not keep a bare run()
        # alive, and the lease hand-back must stay on the non-daemon
        # dispatch chain so waiting submitters actually resume.
        # Expendable: if the response was truly lost in the fabric this
        # process never finishes, by design — not an orphan.
        self.engine.process(
            drain(),
            name=f"quarantine:{server.machine_id}:{lease.slot_id}",
            expendable=True,
        )

    def __repr__(self) -> str:
        return (
            f"<Deployment {self.name} completed={self.completed} "
            f"outstanding={self.outstanding}>"
        )
