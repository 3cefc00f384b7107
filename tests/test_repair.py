"""Tests for the hardware-lifecycle subsystem: service tickets, timed
repair, and rolling in-place upgrades.

The paper's §3.5 failure handling is a loop — map out the bad hardware,
raise a service ticket, swap the card, return the capacity to the pool.
These tests close the loop end-to-end: a killed ring's slot is
cordoned, ticketed, repaired on the policy's clock, un-cordoned, and
re-placed onto — with zero manual ``uncordon()`` calls.  On the same
machinery, ``handle.upgrade(new_spec)`` rolls every replica onto a new
service definition one at a time while the rest keep serving.
"""

import pytest

from repro.cluster import (
    ClusterFailureInjector,
    ClusterManager,
    RepairPolicy,
    RepairQueue,
    RingSlot,
    ServiceSpec,
    echo_service,
)
from repro.fabric import Datacenter, TorusTopology
from repro.fabric.server import ServerState
from repro.hardware.fpga import FpgaState
from repro.services import FailureKind
from repro.sim import Engine
from repro.sim.rng import RngStreams
from repro.sim.units import DAY, HOUR, SEC
from repro.workloads import OpenLoopInjector, PoissonArrivals


def managed_cluster(seed=7, pods=2, width=2, height=3, repair_policy=None):
    eng = Engine(seed=seed)
    dc = Datacenter(eng, num_pods=pods, topology=TorusTopology(width=width, height=height))
    return eng, dc, ClusterManager(dc, repair_policy=repair_policy)


def echo_spec(**overrides) -> ServiceSpec:
    defaults = dict(service=echo_service(), replicas=2, health_period_ns=0.2 * SEC)
    defaults.update(overrides)
    return ServiceSpec(**defaults)


FAST_REPAIR = RepairPolicy(distribution="fixed", mean_ns=2 * SEC)


# --- RepairPolicy ---------------------------------------------------------------------


def test_repair_policy_validates_fields():
    with pytest.raises(ValueError):
        RepairPolicy(distribution="whenever")
    with pytest.raises(ValueError):
        RepairPolicy(mean_ns=0.0)
    with pytest.raises(ValueError):
        RepairPolicy(sigma=-1.0)
    with pytest.raises(ValueError):
        RepairPolicy(batch_period_ns=0.0)


def test_fixed_policy_is_exact():
    policy = RepairPolicy(distribution="fixed", mean_ns=3 * HOUR)
    rng = RngStreams(0).stream("repair")
    assert policy.repair_delay_ns(rng, now_ns=123.0) == 3 * HOUR


def test_lognormal_policy_is_deterministic_and_calibrated():
    policy = RepairPolicy(distribution="lognormal", mean_ns=4 * HOUR, sigma=0.5)
    draws_a = [
        policy.repair_delay_ns(RngStreams(9).stream("repair"), 0.0)
        for _ in range(1)
    ]
    draws_b = [
        policy.repair_delay_ns(RngStreams(9).stream("repair"), 0.0)
        for _ in range(1)
    ]
    assert draws_a == draws_b  # same seed, same stream, same delay
    rng = RngStreams(3).stream("repair")
    mean = sum(policy.repair_delay_ns(rng, 0.0) for _ in range(4000)) / 4000
    assert 0.9 * 4 * HOUR < mean < 1.1 * 4 * HOUR  # E[X] parameterisation


def test_batched_policy_waits_for_the_truck():
    policy = RepairPolicy(distribution="batched", batch_period_ns=7 * DAY)
    rng = RngStreams(0).stream("repair")
    # Mid-week: the ticket closes at the next weekly visit...
    assert policy.repair_delay_ns(rng, now_ns=2 * DAY) == 5 * DAY
    # ...and a ticket opened exactly at a visit waits a full period.
    assert policy.repair_delay_ns(rng, now_ns=7 * DAY) == 7 * DAY


# --- tickets --------------------------------------------------------------------------


def test_cordon_opens_ticket_and_capacity_report_sees_it():
    eng, dc, manager = managed_cluster(repair_policy=FAST_REPAIR)
    slot = RingSlot(0, 1)
    manager.scheduler.cordon(slot, reason="burn-in")
    (ticket,) = manager.repairs.open_tickets
    assert ticket.slot == slot
    assert ticket.reason == "burn-in"
    assert ticket.due_ns == eng.now + FAST_REPAIR.mean_ns
    report = manager.scheduler.capacity_report()
    assert report.cordoned_rings == 1
    assert report.open_tickets == 1
    assert report.next_repair_due_ns == ticket.due_ns
    assert report.serviceable_rings == report.total_rings
    # Cordoning the same slot again does not open a duplicate ticket.
    manager.scheduler.cordon(slot, reason="again")
    assert len(manager.repairs.tickets) == 1


def test_repair_resets_hardware_and_uncordons():
    eng, dc, manager = managed_cluster(repair_policy=FAST_REPAIR)
    pod = dc.pod(0)
    injector = ClusterFailureInjector(dc)
    victims = pod.topology.ring(1)[:2]
    for node in victims:
        injector.inject(FailureKind.FPGA_HARDWARE_FAULT, 0, node)
    injector.inject(FailureKind.CABLE_ASSEMBLY_FAILURE, 0, victims[0])
    manager.scheduler.cordon(RingSlot(0, 1), reason="faulted")
    # Keep the clock moving past the due time (daemon repair needs a
    # bounded run; nothing else is scheduled).
    eng.run(until=FAST_REPAIR.mean_ns + 1.0)
    (ticket,) = manager.repairs.tickets
    assert not ticket.open
    assert ticket.outcome == "repaired"
    assert ticket.components_serviced >= 3  # two cards + the assembly
    assert RingSlot(0, 1) not in manager.scheduler.cordoned_slots
    for node in victims:
        server = pod.server_at(node)
        assert server.state is ServerState.UP
        assert server.fpga.state is FpgaState.UNCONFIGURED
        assert server.fpga.pll_locked
    assert not any(assembly.failed for assembly in pod.assemblies.values())


def test_manual_uncordon_cancels_ticket():
    eng, dc, manager = managed_cluster(repair_policy=FAST_REPAIR)
    slot = RingSlot(1, 0)
    manager.scheduler.cordon(slot)
    manager.scheduler.uncordon(slot)  # operator got there first
    (ticket,) = manager.repairs.tickets
    assert ticket.outcome == "cancelled"
    # The stale repair timer fires harmlessly: no double-uncordon.
    eng.run(until=FAST_REPAIR.mean_ns + 1.0)
    assert manager.repairs.tickets == [ticket]
    assert slot not in manager.scheduler.cordoned_slots


def test_attach_queue_tickets_preexisting_cordons():
    eng, dc, manager = managed_cluster()  # no policy: manual mode
    slot = RingSlot(0, 0)
    manager.scheduler.cordon(slot, reason="old wound")
    queue = RepairQueue(eng, dc, manager.scheduler, policy=FAST_REPAIR)
    manager.scheduler.attach_repair_queue(queue)
    (ticket,) = queue.open_tickets
    assert ticket.slot == slot
    assert ticket.reason == "old wound"
    with pytest.raises(RuntimeError):
        manager.scheduler.attach_repair_queue(
            RepairQueue(eng, dc, manager.scheduler, policy=FAST_REPAIR)
        )


def test_killed_ring_heals_without_operator():
    eng, dc, manager = managed_cluster(repair_policy=FAST_REPAIR)
    handle = manager.apply(echo_spec(replicas=2))
    initial = manager.scheduler.capacity_report()
    ClusterFailureInjector(dc).kill_ring(handle.deployments[0])
    # The watchdog sweeps and sheds at its first tick (+0.2 s), then
    # configures the replacement ring for about 1 s.
    eng.run(until=eng.now + 1.5 * SEC)
    mid = manager.scheduler.capacity_report()
    assert mid.cordoned_rings == 1
    assert mid.open_tickets == 1
    assert handle.status().ready_replicas == 2  # replica already re-placed
    eng.run(until=eng.now + 3.0 * SEC)  # repair due passes
    healed = manager.scheduler.capacity_report()
    assert healed.cordoned_rings == 0
    assert healed.free_rings + healed.occupied_rings == initial.total_rings
    assert manager.repairs.repaired_count == 1


def test_shortfall_replica_replaced_after_repair():
    # Exactly as many rings as replicas: losing one leaves nowhere to
    # re-place until the repair returns the slot.
    eng, dc, manager = managed_cluster(pods=1, repair_policy=FAST_REPAIR)
    handle = manager.apply(echo_spec(replicas=2))
    assert manager.scheduler.capacity_report().free_rings == 0
    ClusterFailureInjector(dc).kill_ring(handle.deployments[0])
    eng.run(until=eng.now + 1.0 * SEC)
    assert handle.status().ready_replicas == 1  # degraded: no free slot
    assert any(
        action.kind == "shortfall"
        for report in manager.reconcile_reports
        for action in report.actions
    )
    eng.run(until=eng.now + 3.0 * SEC)
    # The repair callback reconciled the shortfall away — no operator,
    # no manual uncordon, no watchdog luck required.
    assert handle.status().ready_replicas == 2
    assert manager.scheduler.cordoned_slots == []
    assert manager.repairs.repaired_count == 1


def test_repaired_slot_redeploys_under_traffic():
    quick_repair = RepairPolicy(distribution="fixed", mean_ns=1 * SEC)
    eng, dc, manager = managed_cluster(pods=1, repair_policy=quick_repair)
    handle = manager.apply(echo_spec(replicas=2, request_timeout_ns=0.04 * SEC))
    pool = [object() for _ in range(8)]
    traffic = OpenLoopInjector(
        eng,
        manager.endpoint(handle.name),
        PoissonArrivals(1_500.0),
        pool,
        timeout_ns=0.04 * SEC,
        max_queue_depth=64,
    )
    done = traffic.run(9_000)  # ~6 s of arrivals; the repair lands mid-run
    killed = False
    while not done.triggered:
        eng.run(until=eng.now + 0.05 * SEC)
        if not killed and eng.now >= 0.3 * SEC:
            ClusterFailureInjector(dc).kill_ring(handle.deployments[0])
            killed = True
    stats = done.value
    # The run survived the outage, the repair landed mid-run, and the
    # service finished at full strength on the recovered capacity.
    assert manager.repairs.repaired_count == 1
    assert handle.status().ready_replicas == 2
    assert stats.completed > 0.8 * stats.offered
    assert stats.offered == stats.admitted + stats.rejected


# --- rolling in-place upgrades --------------------------------------------------------


def new_echo(payload="v2", delay_ns=15_000.0):
    return echo_service(payload=payload, delay_ns=delay_ns)


def test_upgrade_swaps_every_replica():
    eng, dc, manager = managed_cluster()
    handle = manager.apply(echo_spec(replicas=3))
    old_deployments = list(handle.deployments)
    new_spec = echo_spec(service=new_echo(), replicas=3)
    report = handle.upgrade(new_spec)
    assert handle.spec is new_spec
    assert len(handle.deployments) == 3
    assert all(d.service is new_spec.service for d in handle.deployments)
    assert all(d.released for d in old_deployments)
    releases = [a for a in report.actions if a.kind == "upgrade_release"]
    places = [a for a in report.actions if a.kind == "upgrade_place"]
    assert len(releases) == 3 and len(places) == 3
    # Rolling invariant: at most ONE replica out of rotation at a time.
    out = 0
    for action in report.actions:
        if action.kind == "upgrade_release":
            out += 1
        elif action.kind == "upgrade_place":
            out -= 1
        assert out <= 1
    assert handle.status().ready_replicas == 3


def test_upgrade_can_rescale_and_reshape():
    eng, dc, manager = managed_cluster()
    handle = manager.apply(echo_spec(replicas=3))
    report = handle.upgrade(echo_spec(service=new_echo(), replicas=2))
    assert len(handle.deployments) == 2
    assert all(d.service.name == "echo-service" for d in handle.deployments)
    assert report.converged
    # And back up: the upgrade path honours scale-up too.
    handle.upgrade(echo_spec(service=new_echo("v3"), replicas=4))
    assert len(handle.deployments) == 4


def test_unplaceable_upgrade_keeps_service_serving():
    """Regression: rolling onto a spec whose shape cannot be placed
    must keep the old replicas in rotation (shortfall recorded), not
    release every replica and take a healthy service dark."""
    eng, dc, manager = managed_cluster(pods=1)  # 2 rings total
    handle = manager.apply(echo_spec(replicas=2))
    old_service = handle.spec.service
    report = handle.upgrade(
        echo_spec(service=new_echo(), replicas=2, rings_per_replica=3)
    )
    # Nothing could be rolled: both old replicas still serve.
    assert len(handle.deployments) == 2
    assert all(d.service is old_service for d in handle.deployments)
    assert handle.status().ready_replicas == 2
    assert any(a.kind == "shortfall" for a in report.actions)
    assert not any(a.kind == "upgrade_release" for a in report.actions)


def test_upgrade_validates_input():
    eng, dc, manager = managed_cluster()
    handle = manager.apply(echo_spec(replicas=1))
    with pytest.raises(ValueError):
        handle.upgrade(echo_spec(service=echo_service(name="other"), replicas=1))
    # apply() rolls a changed definition (one whose serialized
    # fingerprint differs — a new role image) the way upgrade() does.
    v2 = echo_service(role_name="echo-v2")
    report = manager.apply(echo_spec(service=v2, replicas=1)).last_reconcile
    assert [a.kind for a in report.actions] == ["upgrade_release", "upgrade_place"]
    assert handle.deployments[0].service is v2
    manager.drain(handle)
    with pytest.raises(RuntimeError):
        handle.upgrade(echo_spec(replicas=1))


def kill_ring_unswept(dc, deployment, scheduler):
    """Fail every FPGA of ``deployment``'s ring; nothing sweeps it."""
    slot = scheduler.slot_of(deployment)
    injector = ClusterFailureInjector(dc)
    for node in dc.topology.ring(slot.ring_x):
        injector.inject(FailureKind.FPGA_HARDWARE_FAULT, slot.pod_id, node)
    return slot


def test_upgrade_sheds_a_dead_replica_before_rolling():
    """A replica whose ring died is shed (cordoned, "spares exhausted")
    before the roll, rather than released as an upgrade step and its
    dead ring picked again, failing configure."""
    eng, dc, manager = managed_cluster(seed=3)
    handle = manager.apply(echo_spec(replicas=2, health_period_ns=100 * SEC))
    dead = handle.deployments[0]
    slot = kill_ring_unswept(dc, dead, manager.scheduler)
    eng.run_until(
        manager.health_monitor(slot.pod_id).investigate(list(dc.topology.ring(slot.ring_x)))
    )
    assert dead.health_weight() == 0.0
    report = handle.upgrade(echo_spec(service=new_echo(), replicas=2))
    kinds = [a.kind for a in report.actions]
    assert kinds == ["release_unservable", "upgrade_release", "upgrade_place", "replace"]
    assert report.actions[0].slot == slot
    assert manager.scheduler.cordon_reason(slot) == "spares exhausted"
    assert all(d.service is handle.spec.service for d in handle.deployments)


def test_a_roll_cut_short_by_capacity_resumes_after_repair():
    """The first roll step's placement fails on hardware nobody swept
    (the freed ring is cordoned and no ring is free): the second replica
    keeps the old image.  Once the ring is repaired, the repair pass
    rolls it too, with no second upgrade call."""
    eng, dc, manager = managed_cluster(seed=3, pods=1, repair_policy=FAST_REPAIR)
    quiet = 100 * SEC  # no watchdog pass before the repair's
    handle = manager.apply(echo_spec(replicas=2, health_period_ns=quiet))
    old_service = handle.spec.service
    kill_ring_unswept(dc, handle.deployments[0], manager.scheduler)
    v2 = new_echo()
    report = handle.upgrade(echo_spec(service=v2, replicas=2, health_period_ns=quiet))
    assert not report.converged
    assert [d.service for d in handle.deployments] == [old_service]
    eng.run(until=eng.now + FAST_REPAIR.mean_ns + 3 * SEC)
    (ticket,) = manager.repairs.tickets
    assert ticket.outcome == "repaired"
    kinds = [a.kind for a in manager.reconcile_reports[-1].actions]
    assert kinds == ["upgrade_release", "upgrade_place", "replace"]
    assert len(handle.deployments) == 2
    assert all(d.service is v2 for d in handle.deployments)


def test_upgrade_keeps_serving_under_traffic():
    eng, dc, manager = managed_cluster()
    handle = manager.apply(
        echo_spec(replicas=3, request_timeout_ns=0.04 * SEC)
    )
    pool = [object() for _ in range(8)]
    traffic = OpenLoopInjector(
        eng,
        manager.endpoint(handle.name),
        PoissonArrivals(1_500.0),
        pool,
        timeout_ns=0.04 * SEC,
        max_queue_depth=64,
    )
    done = traffic.run(9_000)  # ~6 s of arrivals; the roll takes ~3.5 s
    eng.run(until=0.3 * SEC)
    before = (traffic.stats.admitted, traffic.stats.completed)
    handle.upgrade(echo_spec(service=new_echo(), replicas=3))
    during = (traffic.stats.admitted, traffic.stats.completed)
    # Arrivals kept flowing AND completing during the roll: no
    # total-outage window while replicas were being reconfigured.
    assert during[0] > before[0]
    assert during[1] > before[1]
    eng.run_until(done)
    stats = traffic.stats
    assert all(d.service.name == "echo-service" for d in handle.deployments)
    assert handle.status().ready_replicas == 3
    assert stats.completed > 0.9 * stats.offered
