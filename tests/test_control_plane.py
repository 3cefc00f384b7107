"""Tests for the declarative control plane: ServiceSpec, ClusterManager,
health-driven reconciliation, and the cluster-level failure injector.

The acceptance scenario mirrors the paper's production loop (§2.3,
§3.5): a hardware fault is injected, the per-pod Health Monitor's
report rotates the ring via the Mapping Manager, ``weighted_health``
shifts load toward healthy rings, and reconciliation restores the
declared replica count on a fresh slot — with no caller touching
``HealthMonitor``, ``MappingManager``, or ``LoadBalancer`` directly.
"""

import pytest

from repro.cluster import (
    ClusterFailureInjector,
    ClusterManager,
    ClusterScheduler,
    InsufficientClusterCapacity,
    NoHealthyDeployment,
    PlacementFailed,
    RepairPolicy,
    RingSlot,
    ServiceSpec,
    echo_service,
)
from repro.fabric import Datacenter, TorusTopology
from repro.services import FailureKind, HealthMonitor
from repro.shell.role import PassthroughRole
from repro.sim import Engine
from repro.workloads import OpenLoopInjector, PoissonArrivals


def small_cluster(seed=3, pods=2):
    eng = Engine(seed=seed)
    dc = Datacenter(eng, num_pods=pods, topology=TorusTopology(width=2, height=3))
    return eng, dc, ClusterManager(dc)


def echo_spec(**overrides) -> ServiceSpec:
    defaults = dict(service=echo_service(), replicas=2, health_period_ns=5e9)
    defaults.update(overrides)
    return ServiceSpec(**defaults)


def drive(eng, handle, arrivals, rate=100_000.0, seed_tag="t"):
    pool = [object() for _ in range(8)]
    injector = OpenLoopInjector(
        eng,
        handle.manager.endpoint(handle.name),
        PoissonArrivals(rate),
        pool,
        seed_tag=seed_tag,
    )
    return eng.run_until(injector.run(arrivals))


# --- ServiceSpec validation ----------------------------------------------------------


def test_spec_validates_fields():
    with pytest.raises(ValueError):
        echo_spec(replicas=0)
    with pytest.raises(ValueError):
        echo_spec(balancing="fastest")
    with pytest.raises(ValueError):
        echo_spec(slots_per_server=0)
    with pytest.raises(ValueError):
        echo_spec(request_timeout_ns=0.0)
    with pytest.raises(ValueError):
        echo_spec(health_period_ns=-1.0)


def test_spec_is_frozen_and_rescalable():
    spec = echo_spec()
    with pytest.raises(AttributeError):  # frozen dataclass
        spec.replicas = 5
    scaled = spec.with_replicas(4)
    assert scaled.replicas == 4
    assert scaled.service is spec.service
    assert spec.replicas == 2
    assert spec.name == "echo-service"


# --- apply / status / lifecycle ------------------------------------------------------


def test_apply_places_replicas_and_wires_health_monitors():
    _eng, _dc, manager = small_cluster()
    handle = manager.apply(echo_spec())
    status = handle.status()
    assert status.ready_replicas == status.desired_replicas == 2
    assert status.converged
    # spread placement: one replica per pod
    assert {ring.slot.pod_id for ring in status.rings} == {0, 1}
    # the failure loop is pre-wired: each hosting pod's monitor reports
    # into the same mapping manager the scheduler deploys through
    for pod_id in (0, 1):
        monitor = manager.health_monitor(pod_id)
        assert monitor.mapping_manager is manager.scheduler.mapping_manager(pod_id)


def test_reapply_is_declarative():
    _eng, _dc, manager = small_cluster()
    service = echo_service()
    handle = manager.apply(
        ServiceSpec(service=service, replicas=1, health_period_ns=5e9)
    )
    again = manager.apply(
        ServiceSpec(
            service=service,
            replicas=3,
            balancing="weighted_health",
            health_period_ns=5e9,
        )
    )
    assert again is handle
    assert handle.balancer.policy == "weighted_health"
    assert handle.status().ready_replicas == 3


def test_reapply_with_different_definition_rolls():
    # Same service name, *different* ServiceDefinition (a new role
    # image): re-applying rolls the replica onto it.  A fresh build of
    # the *identical* definition (equal serialized fingerprint, distinct
    # factory closures) is the same declaration — the cluster-file path
    # rebuilds catalogs every load — and rolls nothing.
    _eng, _dc, manager = small_cluster()
    handle = manager.apply(echo_spec(replicas=1))
    assert not manager.apply(echo_spec(replicas=1)).last_reconcile
    v2 = echo_service(role_name="echo-v2")
    report = manager.apply(echo_spec(replicas=1, service=v2)).last_reconcile
    assert [action.kind for action in report.actions] == [
        "upgrade_release",
        "upgrade_place",
    ]
    assert all(d.service is v2 for d in handle.deployments)


def test_reapply_with_new_definition_and_fewer_replicas_scales_down_then_rolls():
    # One pass: the surplus replica is released first, then only the
    # replicas that stay are rolled onto the new image.
    _eng, _dc, manager = small_cluster()
    handle = manager.apply(echo_spec(replicas=3))
    v2 = echo_service(role_name="echo-v2")
    report = manager.apply(echo_spec(replicas=2, service=v2)).last_reconcile
    assert [action.kind for action in report.actions] == [
        "scale_down",
        "upgrade_release",
        "upgrade_place",
        "upgrade_release",
        "upgrade_place",
    ]
    assert len(handle.deployments) == 2
    assert all(d.service is v2 for d in handle.deployments)
    assert manager.scheduler.capacity_report().occupied_rings == 2


def test_canonically_equal_reapply_keeps_the_live_definition():
    # A rebuilt catalog's definition equals the live one in canonical
    # form: it is the live one.  Re-applying it with one more replica
    # rolls nothing, and the new replica runs the live definition too,
    # so the fleet never holds two definition objects for one image.
    _eng, _dc, manager = small_cluster()
    handle = manager.apply(echo_spec(replicas=1))
    live = handle.spec.service
    rebuilt = echo_service()
    assert rebuilt is not live and rebuilt.to_dict() == live.to_dict()
    report = manager.apply(echo_spec(replicas=2, service=rebuilt)).last_reconcile
    assert [action.kind for action in report.actions] == ["replace"]
    assert handle.spec.service is live
    assert all(d.service is live for d in handle.deployments)


def test_scale_after_drain_rejected():
    _eng, _dc, manager = small_cluster()
    handle = manager.apply(echo_spec(replicas=1))
    manager.drain(handle)
    with pytest.raises(RuntimeError):
        handle.scale(2)
    with pytest.raises(RuntimeError):
        handle.reconcile()
    # No hidden redeploy happened.
    assert manager.scheduler.capacity_report().occupied_rings == 0


def test_scale_up_and_down():
    _eng, _dc, manager = small_cluster()
    handle = manager.apply(echo_spec(replicas=1))
    handle.scale(4)
    assert handle.status().ready_replicas == 4
    assert manager.scheduler.capacity_report().occupied_rings == 4
    handle.scale(2)
    assert handle.status().ready_replicas == 2
    assert manager.scheduler.capacity_report().occupied_rings == 2
    # released rings are retired, not cordoned (healthy hardware)
    assert manager.scheduler.cordoned_slots == []
    assert len(handle.retired) == 2


def test_drain_tears_the_service_down():
    eng, _dc, manager = small_cluster()
    handle = manager.apply(echo_spec())
    drive(eng, handle, arrivals=10)
    freed = manager.drain(handle)
    assert len(freed) == 2
    assert not handle.active
    assert manager.scheduler.capacity_report().occupied_rings == 0
    assert "echo-service" not in manager.handles
    with pytest.raises(NoHealthyDeployment):
        next(manager.endpoint(handle.name).submit(object()))


def test_apply_beyond_capacity_degrades_and_records_shortfall():
    _eng, _dc, manager = small_cluster(pods=1)  # 2 rings total
    handle = manager.apply(echo_spec(replicas=3))
    status = handle.status()
    assert status.ready_replicas == 2  # everything placeable was placed
    assert not status.converged
    assert any(
        action.kind == "shortfall"
        for report in manager.reconcile_reports
        for action in report.actions
    )


def test_apply_with_no_capacity_at_all_raises():
    _eng, _dc, manager = small_cluster(pods=1)
    manager.apply(echo_spec())  # replicas=2 occupies both rings
    with pytest.raises(InsufficientClusterCapacity):
        manager.apply(
            ServiceSpec(service=echo_service("other-service"), replicas=1)
        )


# --- the failure loop, end to end ----------------------------------------------------


def test_acceptance_failure_loop_closes_without_touching_mechanism():
    """Inject fault -> monitor report rotates ring -> weighted_health
    shifts load -> reconcile restores replicas on a fresh slot."""
    eng, dc, manager = small_cluster(seed=11)
    handle = manager.apply(echo_spec(balancing="weighted_health"))
    injector = ClusterFailureInjector(dc)

    baseline = drive(eng, handle, arrivals=40, seed_tag="baseline")
    assert baseline.completed == 40

    # Degrade one ring: fault on a spare node (pipeline keeps serving).
    victim_ring = handle.deployments[0]
    victim_slot = manager.scheduler.slot_of(victim_ring)
    victim = victim_ring.assignment.spare_nodes[0]
    injector.inject(FailureKind.FPGA_HARDWARE_FAULT, victim_slot.pod_id, victim)

    # The watchdog sweep (no direct HealthMonitor call) rotates the ring.
    eng.run(until=eng.now + 12e9)
    assert victim in victim_ring.assignment.excluded
    assert manager.scheduler.mapping_manager(victim_slot.pod_id).relocations >= 1
    assert victim_ring.health_weight() == pytest.approx(2 / 3)

    # weighted_health steers load toward the healthy ring.
    healthy_ring = handle.deployments[1]
    shifted = drive(eng, handle, arrivals=400, seed_tag="shifted")
    assert shifted.completed > 0
    assert victim_ring.completed < healthy_ring.completed

    # Now exhaust the ring entirely; reconciliation must replace it.
    injector.kill_ring(victim_ring)
    eng.run(until=eng.now + 12e9)
    status = handle.status()
    assert status.ready_replicas == 2
    assert victim_slot in manager.scheduler.cordoned_slots
    assert victim_ring not in handle.deployments
    assert victim_ring in handle.retired
    replaced_slots = {manager.scheduler.slot_of(d) for d in handle.deployments}
    assert victim_slot not in replaced_slots

    # The reconcile log shows the release and the replacement.
    kinds = [
        action.kind
        for report in manager.reconcile_reports
        for action in report.actions
    ]
    assert "release_unservable" in kinds and "replace" in kinds

    # The restored service still completes requests.
    after = drive(eng, handle, arrivals=40, seed_tag="after")
    assert after.completed == 40


def test_weighted_health_share_drops_in_proportion():
    """Satellite: the degraded ring's share of dispatched requests drops
    roughly in proportion to its health weight (2/3 vs 1.0 -> ~40%)."""
    eng, dc, manager = small_cluster(seed=29)
    handle = manager.apply(echo_spec(balancing="weighted_health"))
    injector = ClusterFailureInjector(dc)

    degraded = handle.deployments[0]
    injector.inject(
        FailureKind.FPGA_HARDWARE_FAULT,
        degraded.pod.pod_id,
        degraded.assignment.spare_nodes[0],
    )
    # One explicit sweep instead of waiting for the watchdog period.
    eng.run_until(manager.sweep(handle))
    assert degraded.health_weight() == pytest.approx(2 / 3)

    before = {d.name: d.completed for d in handle.deployments}
    drive(eng, handle, arrivals=600, seed_tag="share")
    healthy = handle.deployments[1]
    degraded_share = degraded.completed - before[degraded.name]
    healthy_share = healthy.completed - before[healthy.name]
    total = degraded_share + healthy_share
    assert total == 600
    # Expected share (2/3) / (1 + 2/3) = 0.4; allow sampling noise.
    assert 0.30 <= degraded_share / total <= 0.50
    assert degraded_share < healthy_share


def test_watchdog_reports_shortfall_when_capacity_exhausted():
    eng, dc, manager = small_cluster(pods=1)  # 2 rings, no slack
    handle = manager.apply(echo_spec(replicas=2))
    ClusterFailureInjector(dc).kill_ring(handle.deployments[0])
    eng.run(until=eng.now + 12e9)
    status = handle.status()
    assert status.ready_replicas == 1  # degraded but alive
    assert not status.converged
    kinds = [
        action.kind
        for report in manager.reconcile_reports
        for action in report.actions
    ]
    assert "shortfall" in kinds


def test_placement_failure_cordons_and_converges_after_repair():
    eng, dc, manager = small_cluster(pods=1)
    # Wreck every FPGA of the still-free ring (0, 1) before any deploy.
    pod = dc.pod(0)
    injector = ClusterFailureInjector(dc)
    for node in pod.topology.ring(1):
        injector.inject(FailureKind.FPGA_HARDWARE_FAULT, 0, node)
    handle = manager.apply(echo_spec(replicas=2))
    # The wrecked slot was cordoned and the spec could not converge.
    assert RingSlot(0, 1) in manager.scheduler.cordoned_slots
    assert handle.status().ready_replicas == 1
    # Manual service: repair the cards, uncordon, reconcile.
    for node in pod.topology.ring(1):
        pod.server_at(node).fpga.repair()
    manager.scheduler.uncordon(RingSlot(0, 1))
    manager.reconcile(handle)
    assert handle.status().ready_replicas == 2


def test_dead_ring_submissions_time_out_instead_of_hanging():
    """Regression: once a dead ring's leases were all quarantined,
    later submissions blocked forever on the lease store — an open-loop
    run over a failing cluster never finished."""
    eng, dc, manager = small_cluster(pods=1)
    handle = manager.apply(echo_spec(replicas=1, slots_per_server=1))
    handle.stop_watchdog()  # keep the ring dead; no reconciliation
    deployment = handle.deployments[0]
    # Sever the ring's cable assembly: no request can ever complete.
    ClusterFailureInjector(dc).inject_role(
        deployment, FailureKind.CABLE_ASSEMBLY_FAILURE
    )
    server = deployment.injection_servers()[1]  # not the head node
    results = []

    def driver():
        for _ in range(3):
            response = yield from deployment.submit(
                object(), server=server, timeout_ns=1e6
            )
            results.append(response)

    eng.process(driver())
    eng.run()
    assert results == [None, None, None]
    assert deployment.timeouts == 3
    assert deployment.outstanding == 0


# --- release regression (satellite) --------------------------------------------------


def test_released_slot_redeployable_with_different_service():
    """Regression: release() used to leave the old service's roles
    attached and, after failures, left the dead node in the next
    assignment's way — a released slot could not host a new service."""
    eng = Engine(seed=5)
    dc = Datacenter(eng, num_pods=1, topology=TorusTopology(width=2, height=3))
    scheduler = ClusterScheduler(dc)
    (dep_a,) = scheduler.deploy(echo_service("svc-a"), rings=1)

    # Lose the active node; the health loop rotates the ring first.
    pod = dc.pod(0)
    victim = dep_a.assignment.node_of("echo")
    ClusterFailureInjector(dc).inject(FailureKind.FPGA_HARDWARE_FAULT, 0, victim)
    monitor = HealthMonitor(eng, pod, mapping_manager=scheduler.mapping_manager(0))
    eng.run_until(monitor.investigate([victim]))
    assert victim in dep_a.assignment.excluded

    slot = scheduler.release(dep_a)
    assert dep_a.released
    assert dep_a.health_weight() == 0.0
    with pytest.raises(RuntimeError):
        next(dep_a.submit(object()))
    # Stale roles are detached: survivors host the passthrough spare.
    for node in dep_a.assignment.ring_nodes:
        if node in dep_a.assignment.excluded:
            continue
        assert isinstance(pod.server_at(node).shell.role, PassthroughRole)

    # Redeploy a *different* service onto the same (one-pod) slot.
    (dep_b,) = scheduler.deploy(
        echo_service("svc-b", role_name="upper", payload="scored-by-b"),
        rings=1,
    )
    assert scheduler.slot_of(dep_b) == slot
    # The dead card is pre-mapped-out of the new assignment.
    assert victim in dep_b.assignment.excluded

    results = []

    def driver():
        response = yield from dep_b.submit(object())
        results.append(response)

    eng.process(driver())
    eng.run()
    assert results[0].payload == "scored-by-b"


def test_cordon_accounting():
    _eng, dc, manager = small_cluster()
    scheduler = manager.scheduler
    scheduler.cordon(RingSlot(1, 1))
    assert RingSlot(1, 1) not in scheduler.free_slots()
    report = scheduler.capacity_report()
    assert report.cordoned_rings == 1
    assert report.free_rings == 3
    scheduler.uncordon(RingSlot(1, 1))
    assert RingSlot(1, 1) in scheduler.free_slots()
    with pytest.raises(ValueError):
        scheduler.cordon(RingSlot(7, 0))


def test_placement_failed_carries_slot():
    eng = Engine(seed=2)
    dc = Datacenter(eng, num_pods=1, topology=TorusTopology(width=2, height=3))
    scheduler = ClusterScheduler(dc)
    pod = dc.pod(0)
    injector = ClusterFailureInjector(dc)
    for node in pod.topology.ring(0):
        injector.inject(FailureKind.FPGA_HARDWARE_FAULT, 0, node)
    with pytest.raises(PlacementFailed) as info:
        scheduler.deploy(echo_service(), rings=1)
    assert info.value.slot == RingSlot(0, 0)
    # The failed placement left no residue: slot free, no assignment.
    assert RingSlot(0, 0) in scheduler.free_slots()
    assert scheduler.mapping_manager(0).assignments == []


# --- convergence as engine processes ---------------------------------------------------


def test_bounded_run_returns_on_time_during_replacement_and_upgrade_waits():
    """A watchdog re-placement runs inside the engine: a bounded run
    that ends mid-placement returns at its deadline, and a top-level
    upgrade issued then waits for the pass before rolling."""
    eng, dc, manager = small_cluster(pods=2)
    handle = manager.apply(echo_spec(health_period_ns=0.1e9))
    ClusterFailureInjector(dc).kill_ring(handle.deployments[0])
    # The tick at +0.1 s sheds the dead ring and starts configuring its
    # replacement, which takes about 1 s.
    deadline = eng.now + 0.5e9
    assert eng.run(until=deadline) == deadline
    assert eng.now == deadline
    assert handle.status().ready_replicas == 1
    new_service = echo_service(payload="v2")
    report = handle.upgrade(echo_spec(service=new_service, health_period_ns=0.1e9))
    assert report.at_ns > deadline + 0.5e9  # queued behind the re-placement
    kinds = [action.kind for action in report.actions]
    assert kinds.count("upgrade_release") == 2
    assert kinds.count("upgrade_place") == 2
    assert len(handle.deployments) == 2
    assert all(d.service is new_service for d in handle.deployments)
    assert handle.status().ready_replicas == 2


def test_repair_during_a_pass_queues_its_reconcile():
    """A repair that completes while another pass holds the convergence
    lock is not dropped: its pass runs when the lock frees and re-places
    the shortfall replicas, long before the next watchdog tick."""
    eng = Engine(seed=5)
    dc = Datacenter(eng, num_pods=2, topology=TorusTopology(width=2, height=3))
    manager = ClusterManager(
        dc, repair_policy=RepairPolicy(distribution="fixed", mean_ns=0.5e9)
    )
    front = manager.apply(echo_spec(replicas=3, health_period_ns=100e9))
    back = manager.apply(
        echo_spec(service=echo_service(name="back"), replicas=1, health_period_ns=100e9)
    )
    assert manager.scheduler.capacity_report().free_rings == 0
    injector = ClusterFailureInjector(dc)
    injector.kill_ring(front.deployments[0])
    injector.kill_ring(front.deployments[1])
    # The sweep cordons both dead rings (repairs due in 0.5 s) and
    # records a shortfall: no ring is free.
    report = eng.run_until(manager.sweep(front))
    assert [a.kind for a in report.actions][-1] == "shortfall"
    swept = eng.now
    # The upgrade holds the lock for the ~1 s re-placement of its one
    # replica; both repairs land inside it and their passes queue.
    back.upgrade(echo_spec(service=echo_service(name="back", payload="v2"), replicas=1))
    assert manager.repairs.repaired_count == 2
    assert front.status().ready_replicas == 1
    # The queued pass places both shortfall replicas, ~1 s each.
    eng.run(until=eng.now + 2.5e9)
    assert eng.now < swept + 100e9  # no watchdog tick yet
    assert front.status().ready_replicas == 3
    replaced = [
        action
        for report in manager.reconcile_reports
        if report.at_ns > swept
        for action in report.actions
        if action.service == "echo-service"
    ]
    assert [action.kind for action in replaced] == ["replace", "replace"]
