"""Tests for composite multi-ring services and the total-outage fixes.

Tentpole: a replica may span several rings (``rings_per_replica``) —
gang placement is all-or-nothing and link-aware, the member rings chain
into one request path (:class:`CompositeDeployment`), and a member ring
exhausting its spares fails the whole replica, which the watchdog
re-places as a gang.

Satellites: the open-loop injector sheds (instead of crashing) when
every ring is momentarily unservable; a partial gang placement rolls
back instead of leaking capacity; the contended-lease deadline is
disarmed once the lease arrives; the spread cursor wraps past the
last pod; a freed slot is redeployable by a different composite
service.
"""

import pytest

from repro.cluster import (
    ClusterFailureInjector,
    ClusterManager,
    ClusterScheduler,
    CompositeDeployment,
    PlacementFailed,
    RingSlot,
    ServiceSpec,
    echo_service,
)
from repro.fabric import Datacenter, TorusTopology
from repro.services import FailureKind
from repro.sim import Engine
from repro.sim.units import MS, SEC
from repro.workloads import OpenLoopInjector, PoissonArrivals


def small_cluster(seed=3, pods=2, width=2, height=3):
    eng = Engine(seed=seed)
    dc = Datacenter(
        eng, num_pods=pods, topology=TorusTopology(width=width, height=height)
    )
    return eng, dc, ClusterManager(dc)


def composite_spec(rings=2, **overrides) -> ServiceSpec:
    defaults = dict(
        service=echo_service(),
        replicas=1,
        rings_per_replica=rings,
        health_period_ns=5e9,
    )
    defaults.update(overrides)
    return ServiceSpec(**defaults)


def drive(eng, handle, arrivals, rate=50_000.0, seed_tag="t", **kwargs):
    pool = [object() for _ in range(8)]
    injector = OpenLoopInjector(
        eng,
        handle.manager.endpoint(handle.name),
        PoissonArrivals(rate),
        pool,
        seed_tag=seed_tag,
        **kwargs,
    )
    return eng.run_until(injector.run(arrivals))


def wreck_ring(dc, pod_id, ring_x):
    injector = ClusterFailureInjector(dc)
    for node in dc.topology.ring(ring_x):
        injector.inject(FailureKind.FPGA_HARDWARE_FAULT, pod_id, node)


# --- the inter-pod link model -------------------------------------------------------


def test_pod_distance_wraps_around_the_pod_loop():
    eng = Engine(seed=1)
    dc = Datacenter(eng, num_pods=4, topology=TorusTopology(width=2, height=3))
    assert dc.pod_distance(0, 0) == 0
    assert dc.pod_distance(0, 1) == 1
    assert dc.pod_distance(0, 2) == 2
    assert dc.pod_distance(0, 3) == 1  # wraparound: the pods form a loop
    with pytest.raises(ValueError):
        dc.pod_distance(0, 4)


def test_spec_validates_rings_per_replica():
    with pytest.raises(ValueError):
        composite_spec(rings=0)
    spec = composite_spec(rings=3)
    assert spec.rings_per_replica == 3
    assert spec.with_replicas(2).rings_per_replica == 3


# --- gang placement -----------------------------------------------------------------


def test_choose_gang_spread_uses_consecutive_pods():
    eng, dc, _ = small_cluster(pods=3)
    scheduler = ClusterScheduler(dc)
    first = scheduler._choose_gang(2)
    assert [slot.pod_id for slot in first] == [0, 1]
    # The cursor advanced: the next gang starts after the last member.
    second = scheduler._choose_gang(2)
    assert [slot.pod_id for slot in second] == [2, 0]


def test_deploy_gang_is_all_or_nothing():
    eng, dc, _ = small_cluster(pods=1)
    scheduler = ClusterScheduler(dc)
    wreck_ring(dc, 0, 1)
    with pytest.raises(PlacementFailed) as info:
        scheduler.deploy(echo_service(), rings=2)
    assert info.value.slot == RingSlot(0, 1)
    # The gang rolled back: nothing occupied, the good ring redeployable.
    assert scheduler.capacity_report().occupied_rings == 0
    assert RingSlot(0, 0) in scheduler.free_slots()
    (again,) = scheduler.deploy(echo_service(), rings=1)
    assert scheduler.slot_of(again) == RingSlot(0, 0)


def test_deploy_partial_failure_rolls_back_instead_of_leaking():
    """Regression: deploy() raising PlacementFailed after k successful
    placements stranded those k deployments in ``_occupied`` without
    returning them — leaked capacity on every partial failure."""
    eng = Engine(seed=7)
    dc = Datacenter(eng, num_pods=1, topology=TorusTopology(width=3, height=3))
    scheduler = ClusterScheduler(dc)
    wreck_ring(dc, 0, 1)  # hardware fails configure on the 2nd of 3 rings
    with pytest.raises(PlacementFailed) as info:
        scheduler.deploy(echo_service(), rings=3)
    assert info.value.slot == RingSlot(0, 1)
    report = scheduler.capacity_report()
    assert report.occupied_rings == 0
    assert RingSlot(0, 0) in scheduler.free_slots()
    assert RingSlot(0, 2) in scheduler.free_slots()


def test_spread_cursor_wraps_past_the_last_pod():
    """Satellite: with ``_next_pod_id`` beyond every pod id, the spread
    scan must wrap to pod 0 rather than scanning off the end."""
    eng, dc, _ = small_cluster(pods=2)
    scheduler = ClusterScheduler(dc)
    scheduler.deploy(echo_service("a"), rings=2)  # pods 0, 1
    assert scheduler._next_pod_id == 2  # past the last pod
    (third,) = scheduler.deploy(echo_service("b"), rings=1)
    assert scheduler.slot_of(third).pod_id == 0
    # The gang chooser handles an arbitrarily stale cursor the same way.
    scheduler._next_pod_id = 7
    chosen = scheduler._choose_gang(1)
    assert chosen[0].pod_id in (0, 1)


# --- the composite request path -----------------------------------------------------


def test_apply_composite_places_and_serves_end_to_end():
    eng, dc, manager = small_cluster()
    handle = manager.apply(composite_spec(rings=2, replicas=2))
    status = handle.status()
    assert status.ready_replicas == 2
    assert all(len(ring.member_slots) == 2 for ring in status.rings)
    assert manager.scheduler.capacity_report().occupied_rings == 4
    replica = handle.deployments[0]
    assert isinstance(replica, CompositeDeployment)
    # Spread gangs: member rings of one replica on consecutive pods.
    assert [slot.pod_id for slot in status.rings[0].member_slots] == [0, 1]

    stats = drive(eng, handle, arrivals=40)
    assert stats.completed == 40
    # Every member ring of every replica took traffic: the chain is real.
    for replica in handle.deployments:
        assert replica.completed > 0
        for member in replica.members:
            assert member.completed >= replica.completed


def test_composite_chains_responses_and_measures_end_to_end():
    eng, dc, manager = small_cluster()
    handle = manager.apply(composite_spec(rings=2))
    (replica,) = handle.deployments
    results = []

    def driver():
        response = yield from replica.submit(object())
        results.append(response)

    eng.process(driver())
    eng.run()
    # The final response is ring 1's answer to ring 0's response.
    assert results[0].payload == "scored"
    assert replica.completed == 1
    # End-to-end latency covers both stages: at least the sum of the
    # members' own measured stage latencies.
    assert replica.latencies_ns[0] >= sum(
        member.latencies_ns[0] for member in replica.members
    )


def test_chain_handoffs_pay_the_inter_pod_cable_runs():
    """Gang placement's link-awareness is observable: the same chain
    costs more end to end when its members sit on different pods."""
    eng, dc, manager = small_cluster(pods=3)
    scheduler = manager.scheduler
    # Hold pods 1 and 2 out so the spread gang lands on pod 0 alone.
    others = [slot for slot in dc.ring_slots() if slot.pod_id != 0]
    for slot in others:
        scheduler.cordon(slot)
    packed_members = scheduler.deploy(echo_service("packed"), rings=2)
    for slot in others:
        scheduler.uncordon(slot)
    packed = CompositeDeployment(eng, packed_members, datacenter=dc)
    assert packed.hop_delays_ns == [0.0]  # same pod: no cable run

    spread = manager.apply(composite_spec(rings=2)).deployments[0]
    pods = [member.pod.pod_id for member in spread.members]
    expected = Datacenter.INTER_POD_HOP_NS * dc.pod_distance(*pods)
    assert spread.hop_delays_ns == [expected]
    assert expected > 0.0

    for chain in (packed, spread):
        eng.process(chain.submit(object()))
        eng.run()
    # The cross-pod chain is slower by exactly the charged cable run.
    assert spread.latencies_ns[0] == pytest.approx(
        packed.latencies_ns[0] + expected
    )


def test_reapply_with_new_rings_per_replica_reshapes_replicas():
    """Regression: re-applying a spec with a changed rings_per_replica
    was silently ignored — reconcile saw the replica count satisfied
    and left the old single-ring replicas serving forever."""
    eng, dc, manager = small_cluster(pods=3)
    service = echo_service()
    handle = manager.apply(
        ServiceSpec(service=service, replicas=2, health_period_ns=5e9)
    )
    assert all(
        not isinstance(replica, CompositeDeployment)
        for replica in handle.deployments
    )
    manager.apply(
        ServiceSpec(
            service=service,
            replicas=2,
            rings_per_replica=2,
            health_period_ns=5e9,
        )
    )
    assert all(
        isinstance(replica, CompositeDeployment)
        and len(replica.members) == 2
        for replica in handle.deployments
    )
    status = handle.status()
    assert status.ready_replicas == 2
    assert manager.scheduler.capacity_report().occupied_rings == 4
    kinds = [
        action.kind
        for report in manager.reconcile_reports
        for action in report.actions
    ]
    assert "reshape" in kinds
    stats = drive(eng, handle, arrivals=20, seed_tag="reshaped")
    assert stats.completed == 20


def test_in_flight_request_drains_before_gang_release():
    """A request in flight when its gang is reshaped away now *drains*:
    the roll step takes the replica out of rotation, waits for in-flight
    requests to resolve (bounded by the spec's request timeout), and
    only then releases the rings — the request completes instead of
    being diverted.  (Originally a crash regression: mid-hop release
    raised RuntimeError('submit() after release').)"""
    eng, dc, manager = small_cluster(pods=3)
    service = echo_service()
    handle = manager.apply(
        ServiceSpec(
            service=service,
            replicas=1,
            rings_per_replica=2,
            health_period_ns=5e9,
        )
    )
    (replica,) = handle.deployments
    replica.hop_delays_ns = [5 * MS]  # stretch the between-stages window
    results = []

    def driver():
        response = yield from replica.submit(object(), timeout_ns=20 * MS)
        results.append(response)

    started = eng.now
    eng.process(driver())
    eng.run(until=started + 1 * MS)  # stage 0 done, mid-hop
    manager.apply(  # reshape to single rings: releases the gang
        ServiceSpec(service=service, replicas=1, health_period_ns=5e9)
    )
    assert replica.members[0].released
    eng.run()
    # The drain let the in-flight request finish before the release.
    assert len(results) == 1 and results[0] is not None
    assert replica.timeouts == 0
    assert replica.outstanding == 0


def test_in_flight_request_diverts_when_drain_bound_expires():
    """Regression (the §3.2 divert path): a request that outlives the
    drain bound is released mid-hop and must divert as a timeout — not
    crash with RuntimeError('submit() after release')."""
    eng, dc, manager = small_cluster(pods=3)
    service = echo_service()
    handle = manager.apply(
        ServiceSpec(
            service=service,
            replicas=1,
            rings_per_replica=2,
            health_period_ns=5e9,
            request_timeout_ns=10 * MS,  # the reshape drain bound
        )
    )
    (replica,) = handle.deployments
    replica.hop_delays_ns = [30 * MS]  # longer than the drain bound
    results = []

    def driver():
        # The caller granted more budget than the spec's bound; the
        # drain gives up first and the release finds the request still
        # between stages.
        response = yield from replica.submit(object(), timeout_ns=50 * MS)
        results.append(response)

    started = eng.now
    eng.process(driver())
    eng.run(until=started + 1 * MS)  # stage 0 done, mid-hop
    manager.apply(  # reshape to single rings: releases the gang
        ServiceSpec(
            service=service,
            replicas=1,
            health_period_ns=5e9,
            request_timeout_ns=10 * MS,
        )
    )
    assert replica.members[0].released
    eng.run()
    assert results == [None]
    assert replica.timeouts == 1
    assert replica.outstanding == 0


def test_shrink_and_reshape_converge_in_one_pass():
    """Scale-down runs before reshape, so a re-apply that shrinks both
    the replica count and the shape converges immediately — the freed
    surplus slots feed the gang placement."""
    eng, dc, manager = small_cluster(pods=1)  # 2 rings total
    service = echo_service()
    handle = manager.apply(
        ServiceSpec(service=service, replicas=2, health_period_ns=5e9)
    )
    manager.apply(
        ServiceSpec(
            service=service,
            replicas=1,
            rings_per_replica=2,
            health_period_ns=5e9,
        )
    )
    (replica,) = handle.deployments
    assert isinstance(replica, CompositeDeployment)
    assert len(replica.members) == 2
    assert handle.status().ready_replicas == 1
    stats = drive(eng, handle, arrivals=20, seed_tag="shrunk")
    assert stats.completed == 20


def test_unplaceable_reshape_keeps_the_old_shape_serving():
    """An unsatisfiable rings_per_replica re-apply must not take a
    healthy service dark: the pre-flight keeps the old-shape replica
    serving and records the shortfall."""
    eng, dc, manager = small_cluster(pods=1)  # 2 rings total
    service = echo_service()
    handle = manager.apply(
        ServiceSpec(service=service, replicas=1, health_period_ns=5e9)
    )
    manager.apply(
        ServiceSpec(
            service=service,
            replicas=1,
            rings_per_replica=3,  # more rings than the datacenter has
            health_period_ns=5e9,
        )
    )
    # The old single-ring replica is still placed and still serves.
    assert len(handle.deployments) == 1
    assert not isinstance(handle.deployments[0], CompositeDeployment)
    assert handle.status().ready_replicas == 1
    assert any(
        action.kind == "shortfall" and "reshape" in action.detail
        for report in manager.reconcile_reports
        for action in report.actions
    )
    stats = drive(eng, handle, arrivals=20, seed_tag="kept")
    assert stats.completed == 20


def test_composite_health_weight_is_min_over_members():
    eng, dc, manager = small_cluster()
    handle = manager.apply(composite_spec(rings=2))
    (replica,) = handle.deployments
    assert replica.health_weight() == 1.0
    member = replica.members[1]
    spare = member.assignment.spare_nodes[0]
    ClusterFailureInjector(dc).inject(FailureKind.FPGA_HARDWARE_FAULT, member.pod.pod_id, spare)
    eng.run_until(manager.health_monitor(member.pod.pod_id).investigate([spare]))
    assert replica.members[0].health_weight() == 1.0
    assert replica.members[1].health_weight() == pytest.approx(2 / 3)
    assert replica.health_weight() == pytest.approx(2 / 3)


def test_member_death_fails_replica_and_watchdog_replaces_the_gang():
    """The §2.3 composite failure story: one member ring exhausting its
    spares makes the whole replica unservable; reconciliation releases
    the gang (cordoning only the dead member's slot) and re-places it
    all-or-nothing on free capacity."""
    eng, dc, manager = small_cluster(pods=3)  # 6 rings
    handle = manager.apply(composite_spec(rings=2))
    (replica,) = handle.deployments
    dead_member = replica.members[1]
    healthy_member = replica.members[0]
    dead_slot = manager.scheduler.slot_of(dead_member)
    healthy_slot = manager.scheduler.slot_of(healthy_member)

    ClusterFailureInjector(dc).kill_ring(dead_member)
    eng.run(until=eng.now + 12e9)  # the watchdog sweeps and reconciles

    status = handle.status()
    assert status.ready_replicas == 1
    assert replica not in handle.deployments
    assert replica in handle.retired
    # Only the dead member's hardware is held out for manual service;
    # the healthy member's slot went straight back to the free pool.
    assert manager.scheduler.cordoned_slots == [dead_slot]
    assert healthy_slot not in manager.scheduler.cordoned_slots
    (new_replica,) = handle.deployments
    assert isinstance(new_replica, CompositeDeployment)
    assert len(new_replica.members) == 2
    assert dead_slot not in {
        manager.scheduler.slot_of(member) for member in new_replica.members
    }
    kinds = [
        action.kind
        for report in manager.reconcile_reports
        for action in report.actions
    ]
    assert "release_unservable" in kinds
    assert "release_gang_member" in kinds
    assert "replace" in kinds
    # The replacement gang serves.
    stats = drive(eng, handle, arrivals=20, seed_tag="after")
    assert stats.completed == 20


def test_composite_timeout_budget_is_end_to_end():
    eng, dc, manager = small_cluster()
    handle = manager.apply(composite_spec(rings=2, slots_per_server=1))
    handle.stop_watchdog()
    (replica,) = handle.deployments
    # Sever the SECOND member's ring: stage 0 answers, stage 1 never does.
    ClusterFailureInjector(dc).inject_role(
        replica.members[1], FailureKind.CABLE_ASSEMBLY_FAILURE
    )
    # Skip the head as injection server so the request must cross the
    # severed column cables instead of being delivered node-locally.
    replica.members[1]._next_injection_server()
    results = []

    def driver():
        response = yield from replica.submit(object(), timeout_ns=2 * MS)
        results.append(response)

    started = eng.now
    eng.process(driver())
    eng.run()
    assert results == [None]
    assert replica.timeouts == 1
    assert replica.outstanding == 0
    # The chain honoured the single end-to-end budget: stage 1 received
    # only the remaining time, not a fresh 2 ms of its own.
    assert eng.now - started < 2 * 2 * MS


# --- open-loop total-outage shedding (satellite) ------------------------------------


def test_openloop_sheds_instead_of_crashing_during_total_outage():
    """Regression: a kill_ring mid-run used to crash the arrival child
    process with an unhandled NoHealthyDeployment while every ring was
    unservable (mid sweep-and-replace); the run must instead shed those
    arrivals and finish."""
    eng, dc, manager = small_cluster(pods=1)  # 2 rings: 1 serving, 1 free
    handle = manager.apply(
        ServiceSpec(
            service=echo_service(),
            replicas=1,
            health_period_ns=0.5 * MS,
            request_timeout_ns=10 * MS,
        )
    )
    pool = [object() for _ in range(8)]
    traffic = OpenLoopInjector(
        eng,
        manager.endpoint(handle.name),
        PoissonArrivals(200_000.0),
        pool,
        timeout_ns=10 * MS,
        seed_tag="outage",
    )
    done = traffic.run(800)  # arrivals span ~4 ms
    eng.run(until=eng.now + 1 * MS)
    ClusterFailureInjector(dc).kill_ring(handle.deployments[0])
    stats = eng.run_until(done)  # crashes here without the fix
    assert stats.completed > 0  # traffic before the failure
    assert stats.rejected > 0  # shed at the front door during the outage
    assert stats.offered == 800
    # Shed arrivals are reclassified, not double-counted.
    assert stats.offered == stats.admitted + stats.rejected
    assert stats.admitted == stats.completed + stats.timeouts
    # The watchdog is re-placing the replica on the free ring; the
    # ring takes about 1 s to configure.
    eng.run(until=eng.now + 1 * SEC)
    assert handle.status().ready_replicas == 1


# --- contended-lease deadline disarm (satellite) ------------------------------------


def test_contended_lease_deadline_disarmed_after_grant():
    """Regression: the 5 s lease-wait deadline stayed armed after the
    lease arrived, keeping a bare ``engine.run()`` alive (and the event
    heap populated) seconds past the last real event."""
    eng, dc, manager = small_cluster(pods=1)
    handle = manager.apply(
        ServiceSpec(service=echo_service(), replicas=1, slots_per_server=1)
    )
    handle.stop_watchdog()
    (deployment,) = handle.deployments
    server = deployment.injection_servers()[1]
    finished = []

    def driver():
        response = yield from deployment.submit(object(), server=server)
        assert response is not None
        finished.append(eng.now)

    started = eng.now
    eng.process(driver())
    eng.process(driver())  # contends: one slot lease, two submitters
    ended_at = eng.run()
    assert len(finished) == 2
    # run() returned at the last real event, not 5 s later when the
    # abandoned deadlines (lease wait + fabric wait) would have fired.
    assert ended_at == finished[-1]
    assert ended_at - started < 0.1 * SEC


# --- release-then-redeploy by a different composite (satellite) ---------------------


def test_freed_gang_slots_redeployed_by_a_different_composite_service():
    eng, dc, manager = small_cluster()
    first = manager.apply(composite_spec(rings=2, replicas=2))
    assert manager.scheduler.capacity_report().free_rings == 0
    freed = manager.drain(first)
    assert len(freed) == 4

    second = manager.apply(
        ServiceSpec(
            service=echo_service("svc-b", role_name="upper", payload="b"),
            replicas=1,
            rings_per_replica=2,
            health_period_ns=5e9,
        )
    )
    (replica,) = second.deployments
    member_slots = {
        manager.scheduler.slot_of(member) for member in replica.members
    }
    assert member_slots <= set(freed)
    stats = drive(eng, second, arrivals=20, seed_tag="svc-b")
    assert stats.completed == 20
