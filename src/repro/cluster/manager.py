"""The cluster control plane: desired-state service management.

The paper's service keeps running because management software closes a
loop (§2.3, §3.5): the Health Monitor diagnoses failures, the Mapping
Manager rotates rings onto spares, and operators keep enough ring
instances deployed.  :class:`ClusterManager` is that loop made
first-class.  Callers declare a :class:`~repro.cluster.spec.ServiceSpec`
and ``apply()`` it; the manager owns every mechanism underneath —
placement via the :class:`~repro.cluster.scheduler.ClusterScheduler`,
the front-end :class:`~repro.cluster.load_balancer.LoadBalancer`, and
per-pod :class:`~repro.services.health_monitor.HealthMonitor`s wired to
the shared per-pod :class:`~repro.services.mapping_manager
.MappingManager`s, so a failure report rotates the ring, the rotation
moves the ring's health weight, and the ``weighted_health`` policy sees
it — with no caller touching any of those objects directly.

``reconcile()`` converges observed state onto the spec: rings whose
failures exhausted their spares are released (their slots cordoned for
manual service) and replacement replicas are placed on free slots; the
per-service health watchdog automates the sweep-then-reconcile cadence
in simulated time.

Constructed with a :class:`~repro.cluster.repair.RepairPolicy`, the
manager also closes the *repair* half of the §3.5 loop: every cordon
opens a :class:`~repro.cluster.repair.ServiceTicket`, the ticket's
timer models the technician, and on expiry the slot's hardware is
reset, the slot un-cordoned, and shortfall replicas re-placed — no
operator call anywhere.

Every change to a service's replicas goes through one convergence pass
(``_reconcile_one``): shed dead replicas, scale down, roll every stale
replica (wrong shape or definition) one at a time, scale up.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import math
import typing
from collections import deque

from repro.analysis import LatencyStats, ThroughputMeter
from repro.cluster.composite import CompositeDeployment
from repro.cluster.deployment import Deployment
from repro.cluster.endpoint import ServiceEndpoint
from repro.cluster.load_balancer import LoadBalancer
from repro.cluster.repair import RepairPolicy, RepairQueue, ServiceTicket
from repro.cluster.scheduler import (
    CapacityReport,
    ClusterScheduler,
    InsufficientClusterCapacity,
    PlacementFailed,
)
from repro.fabric.datacenter import Datacenter, RingSlot
from repro.services.health_monitor import HealthMonitor
from repro.sim import Engine, Event
from repro.sim.units import US

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.spec import ServiceSpec


@dataclasses.dataclass(frozen=True)
class RingStatus:
    """Observed state of one replica (a ring, or a gang of rings).

    For a composite replica ``slot`` is the head member's ring and
    ``member_slots`` lists every ring of the gang in chain order; for a
    plain single-ring replica ``member_slots`` is ``(slot,)``.
    """

    name: str
    slot: RingSlot
    health: float
    outstanding: int
    completed: int
    timeouts: int
    throughput_per_s: float
    p99_us: float | None
    member_slots: tuple = ()

    def to_dict(self) -> dict:
        """Canonical JSON form; slots serialize as ``"podP/ringR"``."""
        return {
            "name": self.name,
            "slot": _slot_key(self.slot),
            "health": self.health,
            "outstanding": self.outstanding,
            "completed": self.completed,
            "timeouts": self.timeouts,
            "throughput_per_s": self.throughput_per_s,
            "p99_us": self.p99_us,
            "member_slots": [_slot_key(slot) for slot in self.member_slots],
        }


def _slot_key(slot: RingSlot) -> str:
    return f"pod{slot.pod_id}/ring{slot.ring_x}"


@dataclasses.dataclass(frozen=True)
class ServiceStatus:
    """Observed vs desired state of one service.

    Beyond the replica counts, the status carries the front end's
    aggregate view (dispatch counters, throughput, latency summary) and
    the per-ring breakdowns the balancer keeps internally
    (``per_ring_latency`` / ``per_ring_throughput``), so per-ring skew
    is observable without reaching into the
    :class:`~repro.cluster.load_balancer.LoadBalancer`.
    """

    service: str
    desired_replicas: int
    ready_replicas: int
    degraded_replicas: int
    capacity: CapacityReport
    rings: tuple
    outstanding: int = 0
    dispatched: int = 0
    completed: int = 0
    timeouts: int = 0
    throughput_per_s: float = 0.0
    latency: "LatencyStats | None" = None
    per_ring_latency: dict = dataclasses.field(default_factory=dict)
    per_ring_throughput: dict = dataclasses.field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.ready_replicas >= self.desired_replicas

    def to_dict(self) -> dict:
        """Canonical JSON form: sorted, string-keyed, recursively plain.

        Nested dataclasses serialize through their own ``to_dict``;
        every mapping is emitted in sorted key order so the document is
        byte-stable for same-seed runs.
        """
        document = self._document()
        document["capacity"] = self.capacity.to_dict()
        return document

    def _document(self) -> dict:
        """:meth:`to_dict` without the datacenter-wide capacity block."""
        return {
            "service": self.service,
            "desired_replicas": self.desired_replicas,
            "ready_replicas": self.ready_replicas,
            "degraded_replicas": self.degraded_replicas,
            "converged": self.converged,
            "outstanding": self.outstanding,
            "dispatched": self.dispatched,
            "completed": self.completed,
            "timeouts": self.timeouts,
            "throughput_per_s": self.throughput_per_s,
            "latency": self.latency.to_dict() if self.latency else None,
            "rings": [ring.to_dict() for ring in self.rings],
            "per_ring_latency": {
                name: self.per_ring_latency[name].to_dict()
                for name in sorted(self.per_ring_latency)
            },
            "per_ring_throughput": {
                name: self.per_ring_throughput[name]
                for name in sorted(self.per_ring_throughput)
            },
        }


@dataclasses.dataclass(frozen=True)
class ReconcileAction:
    """One convergence step: what the manager did and where."""

    service: str
    # release_unservable | release_gang_member | scale_down | reshape |
    # replace | upgrade_release | upgrade_place | place | cordon |
    # preempt | shortfall
    kind: str
    slot: RingSlot | None = None
    detail: str = ""


@dataclasses.dataclass(frozen=True)
class ReconcileReport:
    """Outcome of one reconciliation pass."""

    at_ns: float
    actions: tuple

    @property
    def converged(self) -> bool:
        return not any(action.kind == "shortfall" for action in self.actions)

    def __bool__(self) -> bool:
        return bool(self.actions)


class ServiceHandle:
    """A declared service under management: the control-plane handle.

    It rescales, reconciles, upgrades and reports status; everything
    else (monitors, mapping managers) stays inside the control plane.
    Requests do not go through the handle: workloads send them to
    ``manager.endpoint(name)``, which dispatches to the live handle's
    balancer.
    """

    def __init__(
        self, manager: "ClusterManager", spec: "ServiceSpec", balancer: LoadBalancer
    ):
        self.manager = manager
        self.spec = spec
        self.balancer = balancer
        self.retired: list[Deployment] = []  # released replicas (post-mortem)
        self._drain_ns = spec.request_timeout_ns  # a rolled replica's drain
        self.active = True
        self._watchdog = None
        self._watchdog_ticks = None  # fluid window bound while sweeping
        # The most recent convergence pass covering THIS service.
        self.last_reconcile: ReconcileReport | None = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def deployments(self) -> list[Deployment]:
        return self.balancer.deployments

    # -- lifecycle -------------------------------------------------------------

    def scale(self, replicas: int) -> ReconcileReport:
        """Declare a new replica count and converge onto it."""
        if not self.active:
            raise RuntimeError(f"service {self.name!r} has been drained")
        return self.manager.apply(self.spec.with_replicas(replicas)).last_reconcile

    def reconcile(self) -> ReconcileReport:
        if not self.active:
            raise RuntimeError(f"service {self.name!r} has been drained")
        return self.manager.reconcile(self)

    def upgrade(self, new_spec: "ServiceSpec") -> ReconcileReport:
        """Roll every replica onto ``new_spec`` — one gang at a time."""
        return self.manager.upgrade(self, new_spec)

    def status(self) -> ServiceStatus:
        return self.manager.status_of(self)

    # -- health watchdog -------------------------------------------------------

    def stop_watchdog(self) -> None:
        if self._watchdog is not None and self._watchdog.is_alive:
            self._watchdog.kill()
        self._watchdog = None
        if self._watchdog_ticks is not None:
            fluid = self.manager.engine.fluid
            if fluid is not None:
                fluid.unregister(self._watchdog_ticks)
        self._watchdog_ticks = None

    def __repr__(self) -> str:
        return (
            f"<ServiceHandle {self.name} {len(self.deployments)}/"
            f"{self.spec.replicas} replicas>"
        )


class _ConvergenceLock:
    """Serialises convergence passes: one holder, later passes queue
    FIFO.  Acquiring a free lock schedules no event."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self.held = False
        self._waiters: deque[Event] = deque()

    def acquire(self) -> collections.abc.Generator:
        """Wait for the lock (a generator); yields only when contended."""
        if not self.held:
            self.held = True
            return
        grant = self.engine.event(name="cluster.converge")
        self._waiters.append(grant)
        try:
            yield grant
        except BaseException:
            if grant.triggered:  # handed over, but the waiter was killed
                self.release()
            raise

    def release(self) -> None:
        """Hand the lock to the oldest live waiter, or free it."""
        while self._waiters:
            grant = self._waiters.popleft()
            if not grant.cancelled:
                grant.succeed()
                return
        self.held = False


class ClusterManager:
    """Datacenter-wide, declarative service management.

    Every convergence pass is a generator that holds one lock, so
    passes never overlap: a later pass queues until the lock frees.
    Watchdog ticks and repairs run passes as engine processes; the
    synchronous methods drive the same generators and are top-level
    only (:meth:`~repro.sim.engine.Engine.drive`).
    """

    def __init__(
        self,
        datacenter: Datacenter,
        repair_policy: RepairPolicy | None = None,
        bitstream_cache=None,  # opt-in BitstreamCache for re-placements
    ):
        self.datacenter = datacenter
        self.engine: Engine = datacenter.engine
        self.scheduler = ClusterScheduler(datacenter, bitstream_cache=bitstream_cache)
        self.handles: dict[str, ServiceHandle] = {}
        self._endpoints: dict[str, ServiceEndpoint] = {}
        self.reconcile_reports: list[ReconcileReport] = []
        self._health_monitors: dict[int, HealthMonitor] = {}
        # Services whose batch tenants a latency placement evicted;
        # drained (re-placed elsewhere) before the pass that evicted
        # them returns.
        self._preempted: list[str] = []
        # Convergence passes must not overlap: placing a replica spans
        # simulated time (a ~1 s ring reconfiguration), during which a
        # watchdog tick or a repair could start a second pass.
        self._lock = _ConvergenceLock(self.engine)
        self._reacting = False  # the holder is a reactive pass
        if self.engine.fluid is not None:
            self.engine.fluid.register(self, guarded=False)
        # With a repair policy, every cordon opens a service ticket and
        # the slot returns to the pool on its own once the ticket's
        # timer expires — the §3.5 loop closed without an operator.
        self.repairs: RepairQueue | None = None
        if repair_policy is not None:
            self.repairs = RepairQueue(
                self.engine, datacenter, self.scheduler, policy=repair_policy
            )
            self.scheduler.attach_repair_queue(self.repairs)
            self.repairs.on_repaired.append(self._on_repaired)

    # -- wiring ----------------------------------------------------------------

    def next_transient_ns(self, now_ns: float) -> float:
        """Fluid windows stay shut while a watchdog, sweep or repair pass
        holds the lock: no driver can announce these dips and recoveries
        ahead, so they are simulated exactly.  Operator calls are bounded
        by the driver's own schedule and run deadlines."""
        return now_ns if self._reacting else math.inf

    def health_monitor(self, pod_id: int) -> HealthMonitor:
        """The pod's Health Monitor, attached to its Mapping Manager.

        The attachment is the failure loop's first half: a report with
        failed machines invokes the Mapping Manager, which rotates the
        affected rings (moving their health weights).
        """
        if pod_id not in self._health_monitors:
            self._health_monitors[pod_id] = HealthMonitor(
                self.engine,
                self.datacenter.pod(pod_id),
                mapping_manager=self.scheduler.mapping_manager(pod_id),
            )
        return self._health_monitors[pod_id]

    # -- declarative lifecycle -------------------------------------------------

    def apply(self, spec: "ServiceSpec") -> ServiceHandle:
        """Converge the cluster onto ``spec``; returns the handle.

        The one verb for every declaration change.  First apply places
        ``spec.replicas`` replicas and opens the front end.  Re-applying
        a spec for the same service updates the declaration in place
        and runs one convergence pass: replica count, shape, balancing
        policy and definition all take effect, a new definition by
        rolling every replica onto it (:meth:`upgrade`).  A definition
        canonically equal to the live one (``to_dict()``; the
        cluster-file path rebuilds its catalog on every load) is the
        live one and rolls nothing.  Top-level only.
        """
        return self.engine.drive(self._apply(spec))

    def _apply(
        self, spec: "ServiceSpec", upgrading: ServiceHandle | None = None
    ) -> collections.abc.Generator:
        """:meth:`apply` as a generator; with ``upgrading``, the checks
        of :meth:`upgrade` first, and the definition taken as given."""
        yield from self._lock.acquire()
        try:
            if upgrading is not None:
                if not upgrading.active:
                    raise RuntimeError(f"service {upgrading.name!r} has been drained")
                if self.handles.get(upgrading.name) is not upgrading:
                    raise ValueError(f"{upgrading.name!r} is not managed by this manager")
                if spec.name != upgrading.name:
                    raise ValueError(
                        f"an upgrade keeps the service name: handle is "
                        f"{upgrading.name!r}, new spec is {spec.name!r} "
                        "(declare a differently named spec with apply())"
                    )
            handle = self.handles.get(spec.name)
            first = handle is None
            if first:
                balancer = LoadBalancer(self.engine, [], policy=spec.balancing, name=spec.name)
                handle = ServiceHandle(self, spec, balancer)
            else:
                # A canonically equal rebuild is the live definition:
                # keep the live object, so no replica reads as stale.
                live = handle.spec.service
                if (
                    upgrading is None
                    and spec.service is not live
                    and spec.service.to_dict() == live.to_dict()
                ):
                    spec = dataclasses.replace(spec, service=live)
                # Requests dispatched before the change carry the old
                # timeout, later ones the new: a roll's drain honours
                # the longer, or legitimately slow requests divert.
                handle._drain_ns = max(handle.spec.request_timeout_ns, spec.request_timeout_ns)
                handle.spec = spec
                handle.balancer.policy = spec.balancing
            actions = yield from self._converge([handle])
            if first:
                # Registered only once placed, so the endpoint never
                # sees a half-placed service.
                if not handle.deployments:
                    raise InsufficientClusterCapacity(
                        f"no servable ring for service {spec.name!r}"
                    )
                # The service's rates count from the instant it is live.
                handle.balancer.meter = ThroughputMeter(self.engine)
                self.handles[spec.name] = handle
            self._record(actions, [handle])
        finally:
            self._lock.release()
        if first:
            self._start_watchdog(handle)
        return handle

    def drain(self, handle: ServiceHandle) -> list[RingSlot]:
        """Tear a service down: release every ring, stop its watchdog
        (after any pass in flight).  Top-level only."""
        return self.engine.drive(self._drain(handle))

    def _drain(self, handle: ServiceHandle) -> collections.abc.Generator:
        yield from self._lock.acquire()
        try:
            handle.stop_watchdog()
            freed = []
            for replica in list(handle.balancer.deployments):
                freed.extend(self._release_replica(replica))
                handle.balancer.deployments.remove(replica)
                handle.retired.append(replica)
            handle.active = False
            self.handles.pop(handle.name, None)
        finally:
            self._lock.release()
        return freed

    # -- replica plumbing (single ring vs composite gang) ----------------------

    @staticmethod
    def _member_rings(replica) -> list[Deployment]:
        """The physical ring deployments behind one replica."""
        if isinstance(replica, CompositeDeployment):
            return replica.members
        return [replica]

    def _release_replica(self, replica) -> list[RingSlot]:
        """Free every ring a replica occupies; returns the slots."""
        return [
            self.scheduler.release(member)
            for member in self._member_rings(replica)
        ]

    # -- reconciliation --------------------------------------------------------

    def reconcile(self, handle: ServiceHandle | None = None) -> ReconcileReport:
        """One convergence pass (:meth:`_reconcile_one`) over ``handle``,
        or over every service.

        A ring is dead when its health weight is zero — failures
        exhausted its spares (the Mapping Manager marked the assignment
        unservable).  Dead rings are released and their slots cordoned
        (the hardware needs manual service); replacements are placed on
        free slots.  When the datacenter runs out of free rings the
        shortfall is recorded and the service keeps running degraded.
        Top-level only; waits for an in-flight pass first.
        """
        return self.engine.drive(self._reconcile(handle))

    def _reconcile(
        self, handle: ServiceHandle | None = None, reactive: bool = False
    ) -> collections.abc.Generator:
        """:meth:`reconcile` as a generator; returns the report.
        ``reactive`` marks a watchdog, sweep or repair pass."""
        yield from self._lock.acquire()
        self._reacting = reactive
        try:
            handles = [handle] if handle is not None else list(self.handles.values())
            actions = yield from self._converge(handles)
            return self._record(actions, handles)
        finally:
            self._reacting = False
            self._lock.release()

    def _converge(self, handles: list[ServiceHandle]) -> collections.abc.Generator:
        """Reconcile each live handle, then re-place preempted tenants
        (a generator, run under the lock); returns the actions."""
        actions: list[ReconcileAction] = []
        for one in handles:
            if one.active:
                actions.extend((yield from self._reconcile_one(one)))
        actions.extend((yield from self._drain_preempted()))
        return actions

    def _record(self, actions: list, handles: list[ServiceHandle]) -> ReconcileReport:
        """Log one pass's report; tell the fluid coordinator if the pass
        changed state (a healthy watchdog tick must not hold fluid off)."""
        if actions and self.engine.fluid is not None:
            self.engine.fluid.note_transient()
        report = ReconcileReport(at_ns=self.engine.now, actions=tuple(actions))
        self.reconcile_reports.append(report)
        for one in handles:
            one.last_reconcile = report
        return report

    def _on_repaired(self, ticket: ServiceTicket) -> None:
        """A service ticket closed: capacity just returned to the pool.

        Start a pass over every service so replicas that were stuck in
        shortfall re-place onto the recovered slot — the repair half of
        the §3.5 loop, with no operator in it.  (The per-service
        watchdogs would converge eventually; this closes the window.)
        The pass queues behind one already in flight.
        """
        del ticket  # which slot recovered does not matter; any shortfall may use it
        if self.handles:
            self.engine.process(
                self._reconcile(reactive=True), name="cluster.repair-reconcile"
            )

    def _reconcile_one(self, handle: ServiceHandle) -> collections.abc.Generator:
        """Converge one service (a generator); returns the actions.

        The only code that changes a service's replicas: first apply,
        re-apply, upgrade, watchdog, sweep and repair passes all run it.
        It sheds dead replicas, scales down, rolls stale ones and scales
        up, in that order; a first apply (a handle not yet registered)
        has nothing to shed or roll and places with kind ``place``.
        """
        actions: list[ReconcileAction] = []
        spec = handle.spec
        balancer = handle.balancer
        # 1. Shed replicas that fell below servability.  A composite
        # replica fails as a unit (its weight is the min over members):
        # every member ring is released, but only the slots of members
        # that actually died are cordoned — healthy members sat on good
        # hardware and their slots return straight to the free pool.
        for replica in list(balancer.deployments):
            if replica.health_weight() > 0.0:
                continue
            for member in self._member_rings(replica):
                dead = member.health_weight() == 0.0
                slot = self.scheduler.release(member)
                if dead:
                    # Only the member's own nodes are bad hardware; a
                    # tenant's co-residents keep serving the ring.
                    self.scheduler.cordon(
                        slot, member.region.nodes, reason="spares exhausted"
                    )
                actions.append(
                    ReconcileAction(
                        spec.name,
                        "release_unservable" if dead else "release_gang_member",
                        slot,
                    )
                )
            balancer.deployments.remove(replica)
            handle.retired.append(replica)
        # 2. Scale down: release the least healthy replicas first.
        # Before reshaping, so surplus replicas are not pointlessly
        # rebuilt at the new shape and their slots are free for it.
        while len(balancer.deployments) > spec.replicas:
            victim = min(balancer.deployments, key=lambda d: d.health_weight())
            for slot in self._release_replica(victim):
                actions.append(ReconcileAction(spec.name, "scale_down", slot))
            balancer.deployments.remove(victim)
            handle.retired.append(victim)
        # 3. Roll every stale replica onto the declaration: one whose
        # member count differs from ``rings_per_replica`` (a reshape) or
        # whose definition is not the live one (an upgrade).  One at a
        # time, each with a capacity pre-flight, so a declaration that
        # cannot be placed degrades the service by at most one replica
        # instead of taking every healthy replica dark.  A roll cut
        # short by capacity resumes in the next pass.
        for replica in list(balancer.deployments):
            if (
                replica.service is spec.service
                and len(self._member_rings(replica)) == spec.rings_per_replica
            ):
                continue
            outcome = yield from self._roll_one(handle, replica, actions)
            if outcome == "capacity":
                break  # capacity raced away; step 4 records the rest
        # 4. Scale up / replace until the declared count is restored.
        kind = "replace" if self.handles.get(spec.name) is handle else "place"
        while len(balancer.deployments) < spec.replicas:
            placed, place_actions = yield from self._place_one(spec, kind=kind)
            actions.extend(place_actions)
            if placed is None:
                break
            balancer.deployments.append(placed)
        return actions

    def _roll_one(
        self, handle: ServiceHandle, replica, actions: list
    ) -> collections.abc.Generator:
        """One rolling step (a generator): drain a replica out of
        rotation, release its rings, re-place it under the live spec —
        ``upgrade_release``/``upgrade_place`` when its definition
        changed, ``reshape``/``replace`` when only its shape did.

        Returns ``"kept"`` when the capacity pre-flight shows the new
        shape cannot possibly fit even reusing this replica's own slots
        (the old replica stays serving, a shortfall is recorded),
        ``"rolled"`` on success, and ``"capacity"`` when placement
        failed *after* the release (the caller should stop rolling
        further healthy replicas; the scale-up step records the delta).
        """
        spec = handle.spec
        balancer = handle.balancer
        if replica.service is spec.service:
            verb, kind_release, kind_place = "reshape", "reshape", "replace"
        else:
            verb, kind_release, kind_place = "upgrade", "upgrade_release", "upgrade_place"
        members = self._member_rings(replica)
        free = len(self.scheduler.free_slots())
        if free + len(members) < spec.rings_per_replica:
            actions.append(
                ReconcileAction(
                    spec.name,
                    "shortfall",
                    None,
                    detail=(
                        f"{verb} to {spec.rings_per_replica} rings "
                        f"needs more capacity ({free} free); "
                        "old replica kept in rotation"
                    ),
                )
            )
            return "kept"
        # Drain: out of the rotation first so the balancer sends no new
        # work, then let in-flight requests resolve before the rings
        # are released (bounded — a dead ring's stragglers resolve as
        # timeouts and divert on release, the §3.2 behavior).
        balancer.deployments.remove(replica)
        yield from self._quiesce(replica, bound_ns=handle._drain_ns)
        for slot in self._release_replica(replica):
            actions.append(ReconcileAction(spec.name, kind_release, slot))
        handle.retired.append(replica)
        placed, place_actions = yield from self._place_one(spec, kind=kind_place)
        actions.extend(place_actions)
        if placed is None:
            return "capacity"
        balancer.deployments.append(placed)
        return "rolled"

    def _place_one(self, spec: "ServiceSpec", kind: str) -> collections.abc.Generator:
        """Place one replica (a generator) — a tenant's region, a single
        ring, or a gang of ``rings_per_replica`` rings wrapped in a
        :class:`CompositeDeployment` — cordoning the claims that fail
        at configure time and retrying until the replica sticks or
        capacity runs out.  Gangs are all-or-nothing: a configure
        failure rolls the partial gang back inside the scheduler, the
        bad claim's nodes are cordoned here, and the whole gang is
        retried.  Returns the replica (``None`` on shortfall) and the
        actions."""
        actions: list[ReconcileAction] = []
        while True:
            try:
                members = yield from self.scheduler.place(
                    spec.service,
                    spec.rings_per_replica,
                    adapter=spec.adapter,
                    slots_per_server=spec.slots_per_server,
                    fraction=spec.regions,
                    priority=spec.priority,
                )
                placed = (
                    members[0]
                    if len(members) == 1
                    else CompositeDeployment(
                        self.engine, members, datacenter=self.datacenter
                    )
                )
            except PlacementFailed as failure:
                # The chosen claim turned out to have bad hardware the
                # scheduler had no record of; hold its nodes out and
                # retry.  A failed tenant's co-residents are unaffected.
                self.scheduler.cordon(
                    failure.slot,
                    failure.nodes,
                    reason=f"configure failed: {failure.cause}",
                )
                actions.append(
                    ReconcileAction(
                        spec.name, "cordon", failure.slot, detail=str(failure.cause)
                    )
                )
                continue
            except InsufficientClusterCapacity as exc:
                if spec.priority == "latency":
                    # Priority preemption: a latency tenant may evict a
                    # batch tenant's region (a whole ring never does);
                    # the victim's service is re-placed elsewhere before
                    # this pass returns.
                    victim = self.scheduler.preemption_victim(
                        spec.service, spec.regions
                    )
                    if victim is not None:
                        actions.append((yield from self._preempt(victim, spec)))
                        continue
                actions.append(
                    ReconcileAction(spec.name, "shortfall", None, detail=str(exc))
                )
                return None, actions
            members = self._member_rings(placed)
            for member in members:
                self.health_monitor(member.pod.pod_id)
            slots = [self.scheduler.slot_of(member) for member in members]
            actions.append(
                ReconcileAction(
                    spec.name,
                    kind,
                    slots[0],
                    detail=(
                        " -> ".join(str(slot) for slot in slots)
                        if len(slots) > 1
                        else ""
                    ),
                )
            )
            return placed, actions

    # -- priority preemption (region tenants) ----------------------------------

    def _preempt(self, victim: Deployment, spec: "ServiceSpec") -> collections.abc.Generator:
        """Evict ``victim`` (a batch region tenant) for ``spec`` (a
        generator); returns the action.

        The victim leaves its front-end rotation, drains its in-flight
        requests (bounded by its own timeout), and its region is
        released; its service is queued for re-placement elsewhere via
        :meth:`_drain_preempted` before the evicting pass returns.
        """
        region = victim.region
        slot = self.scheduler.slot_of(victim)
        victim_handle = self.handles.get(region.service)
        if (
            victim_handle is not None
            and victim in victim_handle.balancer.deployments
        ):
            victim_handle.balancer.deployments.remove(victim)
            yield from self._quiesce(
                victim, bound_ns=victim_handle.spec.request_timeout_ns
            )
            victim_handle.retired.append(victim)
            if victim_handle.name not in self._preempted:
                self._preempted.append(victim_handle.name)
        self.scheduler.release(victim)
        return ReconcileAction(
            spec.name,
            "preempt",
            slot,
            detail=f"evicted batch tenant {region.service!r}",
        )

    def _drain_preempted(self) -> collections.abc.Generator:
        """Re-place the services whose tenants this pass evicted (a
        generator); returns the actions.

        Evicted tenants are batch priority and batch placements never
        preempt, so the drain cannot cascade; at worst a victim lands
        in shortfall and the next repair/reconcile picks it up.
        """
        actions: list[ReconcileAction] = []
        while self._preempted:
            victim_handle = self.handles.get(self._preempted.pop(0))
            if victim_handle is not None and victim_handle.active:
                actions.extend((yield from self._reconcile_one(victim_handle)))
        return actions

    # -- rolling in-place upgrades ---------------------------------------------

    def upgrade(self, handle: ServiceHandle, new_spec: "ServiceSpec") -> ReconcileReport:
        """Reconfigure a live service onto ``new_spec``, one replica at
        a time — the paper's headline reconfigurability scenario: the
        same machines, a new accelerator, no service-wide downtime.

        :meth:`apply`'s pass, after checks (the handle is live, managed
        here, and keeps its name), with the definition taken as given:
        every replica not running ``new_spec.service`` itself rolls, even
        onto a canonically equal definition (a new role factory is
        invisible to ``to_dict()``).  Returns the report of the roll.  A
        roll cut short by capacity (``shortfall`` actions) is finished by
        the next pass that finds room (a watchdog tick, a repair).
        """
        return self.engine.drive(self._apply(new_spec, upgrading=handle)).last_reconcile

    def _quiesce(
        self, replica, bound_ns: float, poll_ns: float = 50 * US
    ) -> collections.abc.Generator:
        """Wait (a generator) until ``replica`` has no in-flight
        requests, bounded by ``bound_ns`` — every dispatched request
        resolves within its timeout, so the bound only bites when a
        ring died with stragglers (which then divert as timeouts on
        release, the §3.2 behavior)."""
        deadline = self.engine.now + bound_ns + poll_ns
        while replica.outstanding > 0 and self.engine.now < deadline:
            yield self.engine.timeout(poll_ns)

    # -- health watchdog -------------------------------------------------------

    def _start_watchdog(self, handle: ServiceHandle) -> None:
        """Periodic sweep-then-reconcile for one service.

        In production the Health Monitor "is invoked when there is a
        suspected failure" by a machine higher in the hierarchy; the
        watchdog automates that trigger for the service's rings — every
        period it walks each replica's live nodes through the owning
        pod's Health Monitor (error vectors trigger Mapping Manager
        rotations) and reconciles afterwards so exhausted rings are
        replaced without an operator in the loop.
        """
        def body() -> collections.abc.Generator:
            while handle.active:
                # Read the period from the live spec each cycle so a
                # re-applied declaration changes the cadence in place.
                yield self.engine.timeout(handle.spec.health_period_ns)
                if not handle.active:
                    return
                yield from self._sweep_body(handle)
                yield from self._reconcile(handle, reactive=True)

        handle._watchdog = self.engine.process(
            body(), name=f"cluster.watchdog:{handle.name}", daemon=True
        )
        if self.engine.fluid is not None:
            # Sweep cadence bounds fluid windows (observer, no guard):
            # a healthy sweep reads state and moves on; an unhealthy
            # one reconciles, and that pass notes its own transient.
            from repro.sim.fluid import PeriodicTransient

            handle._watchdog_ticks = PeriodicTransient(
                handle.spec.health_period_ns, anchor_ns=self.engine.now
            )
            self.engine.fluid.register(handle._watchdog_ticks, guarded=False)

    def sweep(self, handle: ServiceHandle):
        """One immediate health sweep + reconcile, as a process whose
        value is the report (usable with ``engine.run_until``)."""

        def body() -> collections.abc.Generator:
            yield from self._sweep_body(handle)
            return (yield from self._reconcile(handle, reactive=True))

        return self.engine.process(body(), name=f"cluster.sweep:{handle.name}")

    def _sweep_body(self, handle: ServiceHandle) -> collections.abc.Generator:
        by_pod: dict[int, list] = {}
        for replica in list(handle.balancer.deployments):
            for member in self._member_rings(replica):
                assignment = member.assignment
                if assignment is None:
                    continue
                live = [
                    node
                    for node in assignment.ring_nodes
                    if node not in assignment.excluded
                ]
                by_pod.setdefault(member.pod.pod_id, []).extend(live)
        for pod_id in sorted(by_pod):
            report = yield self.health_monitor(pod_id).investigate(by_pod[pod_id])
            del report  # failures already routed to the mapping manager

    # -- front door ------------------------------------------------------------

    def endpoint(self, name: str) -> ServiceEndpoint:
        """The stable virtual endpoint (VIP) for service ``name``.

        Memoized per name, and independent of whether the service is
        currently applied: the endpoint resolves the live handle at
        each dispatch, so it survives re-placement, preemption,
        upgrades, repair, and drain + re-apply.  Workloads should hold
        this instead of the :class:`ServiceHandle`.
        """
        if name not in self._endpoints:
            self._endpoints[name] = ServiceEndpoint(self, name)
        return self._endpoints[name]

    # -- observation -----------------------------------------------------------

    def status_of(self, handle: ServiceHandle) -> ServiceStatus:
        return self._status_of(handle, self.scheduler.capacity_report())

    def _status_of(self, handle: ServiceHandle, capacity: CapacityReport) -> ServiceStatus:
        rings = []
        for replica in handle.balancer.deployments:
            slots = tuple(
                self.scheduler.slot_of(member)
                for member in self._member_rings(replica)
            )
            rings.append(
                RingStatus(
                    name=replica.name,
                    slot=slots[0],
                    health=replica.health_weight(),
                    outstanding=replica.outstanding,
                    completed=replica.completed,
                    timeouts=replica.timeouts,
                    throughput_per_s=replica.meter.per_second,
                    p99_us=(
                        replica.latencies_ns.percentile(99) / US
                        if replica.latencies_ns
                        else None
                    ),
                    member_slots=slots,
                )
            )
        balancer = handle.balancer
        return ServiceStatus(
            service=handle.name,
            desired_replicas=handle.spec.replicas,
            ready_replicas=sum(1 for ring in rings if ring.health > 0.0),
            degraded_replicas=sum(1 for ring in rings if 0.0 < ring.health < 1.0),
            capacity=capacity,
            rings=tuple(rings),
            outstanding=balancer.outstanding,
            dispatched=balancer.dispatched,
            completed=balancer.completed,
            timeouts=balancer.timeouts,
            throughput_per_s=balancer.meter.per_second,
            latency=(
                balancer.latencies_ns.summary() if balancer.latencies_ns else None
            ),
            per_ring_latency=balancer.per_ring_stats(),
            per_ring_throughput=balancer.per_ring_throughput(),
        )

    def status(self) -> dict[str, ServiceStatus]:
        """Every managed service's status, in canonical (sorted) order.

        Sorted so serialized cluster state is independent of the order
        in which services happened to be applied.  Every status shares
        one capacity report.
        """
        capacity = self.scheduler.capacity_report()
        return {
            name: self._status_of(self.handles[name], capacity)
            for name in sorted(self.handles)
        }

    def __repr__(self) -> str:
        return (
            f"<ClusterManager services={sorted(self.handles)} "
            f"{self.scheduler.capacity_report().occupied_rings} rings occupied>"
        )
