"""Tests for multi-tenant rings: virtualized role regions, weighted
fair-share dispatch, priority preemption, and the LRU bitstream cache.

The paper dedicates a ring per service (§2.3); the tenancy layer carves
a ring into regions so several small services co-reside.  These tests
pin the subsystem's contracts: first-fit packing, one-claim-per-service,
slot-quota isolation on shared injection servers, latency-over-batch
preemption inside a single reconcile pass, region-granular cordon and
repair, per-pod capacity invariants under churn, and the staging-DRAM
cache that turns a re-placement into a model-reload-class operation.
"""

import pytest

from repro.cluster import (
    BitstreamCache,
    ClusterManager,
    ClusterScheduler,
    InsufficientClusterCapacity,
    PodCapacity,
    RingSlot,
    RingTenancy,
    ServiceSpec,
    echo_service,
    region_node_count,
    slot_quota,
)
from repro.fabric import Datacenter, TorusTopology
from repro.hardware import ResourceBudget
from repro.hardware.constants import MODEL_RELOAD_WORST_NS
from repro.host.slots import SlotAllocator, SlotExhausted
from repro.sim import Engine
from repro.workloads import OpenLoopInjector, PoissonArrivals


def make_dc(seed=3, pods=1, width=2, height=4):
    eng = Engine(seed=seed)
    dc = Datacenter(
        eng, num_pods=pods, topology=TorusTopology(width=width, height=height)
    )
    return eng, dc


def region_spec(name, fraction, priority="batch", replicas=1, **overrides):
    defaults = dict(
        service=echo_service(name),
        replicas=replicas,
        regions=fraction,
        priority=priority,
        health_period_ns=5e9,
    )
    defaults.update(overrides)
    return ServiceSpec(**defaults)


def slot_at(dc, pod_id, ring_x):
    (slot,) = [
        s for s in dc.ring_slots() if s.pod_id == pod_id and s.ring_x == ring_x
    ]
    return slot


# --- tenancy primitives --------------------------------------------------------------


def test_region_node_count_rounds_up_and_floors_at_roles():
    svc = echo_service()  # one active role
    assert region_node_count(svc, 0.5, 8) == 4
    assert region_node_count(svc, 0.51, 8) == 5  # guarantees, not hints
    assert region_node_count(svc, 0.01, 8) == 1
    assert region_node_count(svc, 1.0, 8) == 8
    with pytest.raises(ValueError):
        region_node_count(svc, 0.0, 8)
    with pytest.raises(ValueError):
        region_node_count(svc, 1.5, 8)


def test_slot_quota_weights_latency_twice_batch():
    assert slot_quota(0.5, "latency", 48) == 24
    assert slot_quota(0.5, "batch", 48) == 12
    assert slot_quota(0.01, "batch", 48) == 1  # never starved to zero
    with pytest.raises(ValueError):
        slot_quota(0.5, "interactive", 48)
    # Normalised: co-resident full-weight shares cannot oversubscribe.
    assert slot_quota(0.5, "latency", 48) * 2 <= 48


def test_ring_tenancy_claims_cordons_and_release():
    slot = RingSlot(0, 0)
    tenancy = RingTenancy(slot, ["n0", "n1", "n2", "n3"])
    a = tenancy.claim("a", 0.5, "latency", 2, 48)
    assert a.nodes == ("n0", "n1")
    assert not tenancy.can_host("a", 1)  # one claim per service per ring
    b = tenancy.claim("b", 0.5, "batch", 2, 48)
    assert b.nodes == ("n2", "n3")
    assert tenancy.free_nodes() == []
    with pytest.raises(ValueError):
        tenancy.claim("c", 0.25, "batch", 1, 48)
    tenancy.release(b)
    tenancy.cordon_region(("n2",), "bad card")
    assert tenancy.free_nodes() == ["n3"]
    tenancy.release(a)
    assert not tenancy.empty  # the cordon still pins the tenancy
    tenancy.clear_cordons()
    assert tenancy.empty


# --- ResourceBudget satellites -------------------------------------------------------


def test_budget_subtraction_and_fits_within():
    device = ResourceBudget(alms=1000, m20k_blocks=100, dsp_blocks=10)
    used = ResourceBudget(alms=400, m20k_blocks=40, dsp_blocks=4)
    headroom = device - used
    assert headroom == ResourceBudget(alms=600, m20k_blocks=60, dsp_blocks=6)
    assert headroom.non_negative
    assert used.fits_within(device)
    assert not device.fits_within(used)


def test_utilization_handles_zero_capacity():
    empty = ResourceBudget()
    assert all(v == 0.0 for v in ResourceBudget().utilization(empty).values())
    used = ResourceBudget(alms=1).utilization(empty)
    assert used["logic"] == float("inf")
    assert empty.fits(ResourceBudget(alms=1))
    assert not ResourceBudget(alms=1).fits(empty)


# --- shared slot allocator -----------------------------------------------------------


def test_slot_allocator_partitions_one_pool():
    _eng, dc = make_dc()
    server = dc.ring_servers(slot_at(dc, 0, 0))[0]
    allocator = SlotAllocator(server)
    pool = server.buffers.slot_count
    a = allocator.acquire(24, owner="a")
    b = allocator.acquire(12, owner="b")
    assert len(a) == 24 and len(b) == 12
    assert not set(a) & set(b)
    assert allocator.free_count == pool - 36
    allocator.release(a)
    assert allocator.free_count == pool - 12
    allocator.acquire(allocator.free_count, owner="c")
    with pytest.raises(SlotExhausted):
        allocator.acquire(1, owner="d")


# --- region placement ----------------------------------------------------------------


def test_deploy_region_packs_two_tenants_per_ring():
    _eng, dc = make_dc()
    scheduler = ClusterScheduler(dc)
    (a,) = scheduler.deploy(echo_service("a"), fraction=0.5, priority="latency")
    (b,) = scheduler.deploy(echo_service("b"), fraction=0.5, priority="batch")
    # First fit co-locates both halves on the first ring.
    assert scheduler.slot_of(a) == scheduler.slot_of(b)
    tenancy = scheduler.tenancy_of(scheduler.slot_of(a))
    assert set(tenancy.claims) == {"a", "b"}
    assert not set(a.region.nodes) & set(b.region.nodes)
    report = scheduler.capacity_report()
    assert report.occupied_rings == 1
    assert report.tenant_regions == 2
    # The shared ring cannot be cordoned whole out from under a tenant.
    with pytest.raises(ValueError):
        scheduler.cordon(scheduler.slot_of(a))


def test_replicas_of_one_service_land_on_distinct_rings():
    _eng, dc = make_dc(width=3)
    scheduler = ClusterScheduler(dc)
    svc = echo_service("spread-me")
    (first,) = scheduler.deploy(svc, fraction=0.25)
    (second,) = scheduler.deploy(svc, fraction=0.25)
    assert scheduler.slot_of(first) != scheduler.slot_of(second)


def test_region_release_keeps_the_other_tenant():
    eng, dc = make_dc()
    scheduler = ClusterScheduler(dc)
    (a,) = scheduler.deploy(echo_service("a"), fraction=0.5)
    (b,) = scheduler.deploy(echo_service("b"), fraction=0.5)
    slot = scheduler.slot_of(a)
    scheduler.release(a)
    assert a.released and not b.released
    tenancy = scheduler.tenancy_of(slot)
    assert set(tenancy.claims) == {"b"}
    assert scheduler.capacity_report().occupied_rings == 1
    # b still serves after a's departure.
    response = eng.run_until(eng.process(b.submit(object())))
    assert response is not None
    # Releasing the last tenant frees the ring entirely.
    scheduler.release(b)
    assert scheduler.tenancy_of(slot) is None
    assert scheduler.capacity_report().free_rings == dc.total_rings


def test_oversized_region_rejected():
    _eng, dc = make_dc(height=4)
    scheduler = ClusterScheduler(dc)
    scheduler.deploy(echo_service("big"), fraction=1.0)
    scheduler.deploy(echo_service("big2"), fraction=1.0)
    with pytest.raises(InsufficientClusterCapacity):
        scheduler.deploy(echo_service("late"), fraction=0.25)


def test_full_ring_tenant_stays_a_tenant_but_its_cordon_is_whole():
    _eng, dc = make_dc(height=4)
    scheduler = ClusterScheduler(dc)
    (tenant,) = scheduler.deploy(echo_service("big"), fraction=1.0)
    (whole,) = scheduler.deploy(echo_service("ring"))
    # A tenant spanning its ring keeps its region name, batch priority
    # and tenant count; only the whole-ring claim has the bare name.
    assert tenant.name.endswith("/region0") and tenant.region.priority == "batch"
    assert whole.name == "ring@pod0/ring1" and whole.region.whole
    assert scheduler.capacity_report().tenant_regions == 1
    # A cordon is hardware held out: over every node it is a whole-ring
    # cordon, whichever claim the nodes came from.
    slot = scheduler.release(tenant)
    scheduler.cordon(slot, tenant.region.nodes, reason="spares exhausted")
    assert scheduler.cordoned_slots == [slot]
    assert scheduler.capacity_report().cordoned_regions == 0


# --- capacity report: per-pod breakdown under churn ----------------------------------


def assert_report_invariants(scheduler, dc):
    report = scheduler.capacity_report()
    assert set(report.per_pod) == {slot.pod_id for slot in dc.ring_slots()}
    sums = {"total": 0, "free": 0, "occupied": 0, "cordoned": 0, "regions": 0}
    for pod in report.per_pod.values():
        assert isinstance(pod, PodCapacity)
        assert (
            pod.free_rings + pod.occupied_rings + pod.cordoned_rings
            == pod.total_rings
        )
        assert pod.free_rings >= 0 and pod.cordoned_rings >= 0
        sums["total"] += pod.total_rings
        sums["free"] += pod.free_rings
        sums["occupied"] += pod.occupied_rings
        sums["cordoned"] += pod.cordoned_rings
        sums["regions"] += pod.tenant_regions
    assert sums["total"] == report.total_rings == dc.total_rings
    assert sums["free"] == report.free_rings
    assert sums["occupied"] == report.occupied_rings
    assert sums["cordoned"] == report.cordoned_rings
    assert sums["regions"] == report.tenant_regions
    return report


def test_per_pod_breakdown_invariants_under_churn():
    _eng, dc = make_dc(pods=2, width=3, height=4)
    scheduler = ClusterScheduler(dc)
    assert_report_invariants(scheduler, dc)

    whole = scheduler.deploy(echo_service("whole"), rings=2)
    assert_report_invariants(scheduler, dc)

    (a,) = scheduler.deploy(echo_service("a"), fraction=0.5)
    (b,) = scheduler.deploy(echo_service("b"), fraction=0.5)
    report = assert_report_invariants(scheduler, dc)
    assert report.tenant_regions == 2

    free = scheduler.free_slots()
    scheduler.cordon(free[0], reason="whole-ring fault")
    nodes = [server.node_id for server in dc.ring_servers(free[1])][:2]
    scheduler.cordon(free[1], nodes, reason="bad run")
    report = assert_report_invariants(scheduler, dc)
    assert report.cordoned_rings == 2  # one whole, one tenantless shared
    assert report.cordoned_regions == 1

    scheduler.release(whole[0])
    scheduler.release(a)
    report = assert_report_invariants(scheduler, dc)
    assert report.tenant_regions == 1

    scheduler.uncordon(free[0])
    scheduler.uncordon(free[1])
    scheduler.release(whole[1])
    scheduler.release(b)
    report = assert_report_invariants(scheduler, dc)
    assert report.free_rings == dc.total_rings


# --- co-resident dispatch: weighted fair share ---------------------------------------


def test_co_resident_tenants_share_servers_under_quota():
    eng, dc = make_dc(seed=9)
    manager = ClusterManager(dc)
    lat = manager.apply(region_spec("lat", 0.5, priority="latency"))
    bat = manager.apply(region_spec("bat", 0.5, priority="batch"))
    d_lat = lat.deployments[0]
    d_bat = bat.deployments[0]
    assert manager.scheduler.slot_of(d_lat) == manager.scheduler.slot_of(d_bat)
    # Latency weighs twice batch at equal fractions.
    assert d_lat.region.slot_quota == 2 * d_bat.region.slot_quota

    pool = [object() for _ in range(16)]
    done_lat = OpenLoopInjector(
        eng, manager.endpoint("lat"), PoissonArrivals(50_000.0), pool, seed_tag="lat"
    ).run(40)
    done_bat = OpenLoopInjector(
        eng, manager.endpoint("bat"), PoissonArrivals(50_000.0), pool, seed_tag="bat"
    ).run(40)
    eng.run_until(done_lat)
    if not done_bat.triggered:
        eng.run_until(done_bat)
    assert done_lat.value.completed == 40
    assert done_bat.value.completed == 40

    # The quotas drew disjoint slot ids from every shared server.
    for server, lat_ids in d_lat._owned_slots:
        bat_ids = [
            ids for srv, ids in d_bat._owned_slots if srv is server
        ]
        assert len(lat_ids) == d_lat.region.slot_quota
        for ids in bat_ids:
            assert not set(lat_ids) & set(ids)


# --- priority preemption -------------------------------------------------------------


def test_latency_preempts_batch_within_one_pass():
    _eng, dc = make_dc(seed=5, width=3, height=8)
    manager = ClusterManager(dc)
    victim = manager.apply(region_spec("victim", 0.75, priority="batch"))
    keeper = manager.apply(region_spec("keeper", 0.5, priority="latency"))
    victim_before = victim.deployments[0]
    keeper_before = keeper.deployments[0]
    assert manager.scheduler.slot_of(victim_before) == slot_at(dc, 0, 0)
    assert manager.scheduler.slot_of(keeper_before) == slot_at(dc, 0, 1)
    # The last ring has a bad node run: cordoned, not free, so the
    # incoming whole-ring latency tenant cannot simply take it.
    spoiled = slot_at(dc, 0, 2)
    bad = [server.node_id for server in dc.ring_servers(spoiled)][:2]
    manager.scheduler.cordon(spoiled, bad, reason="bad cable")

    urgent = manager.apply(region_spec("urgent", 1.0, priority="latency"))

    kinds = [a.kind for a in manager.reconcile_reports[-1].actions]
    assert "preempt" in kinds
    # The latency tenant landed on the evicted batch tenant's ring...
    assert urgent.status().ready_replicas == 1
    assert manager.scheduler.slot_of(urgent.deployments[0]) == slot_at(dc, 0, 0)
    # ...the victim was re-placed elsewhere inside the same pass...
    assert victim.status().ready_replicas == 1
    assert victim_before.released
    assert victim_before in victim.retired
    assert manager.scheduler.slot_of(victim.deployments[0]) == spoiled
    # ...around the cordoned run, which stays held out...
    held = set(bad)
    assert not held & set(victim.deployments[0].region.nodes)
    # ...and the co-resident latency tenant was never disturbed.
    assert keeper.deployments[0] is keeper_before
    assert keeper.status().ready_replicas == 1


def test_batch_placement_never_preempts():
    _eng, dc = make_dc(seed=5, width=2, height=4)
    manager = ClusterManager(dc)
    manager.apply(region_spec("a", 1.0, priority="batch"))
    manager.apply(region_spec("b", 1.0, priority="batch"))
    with pytest.raises(InsufficientClusterCapacity):
        manager.apply(region_spec("late-batch", 1.0, priority="batch"))
    kinds = [a.kind for a in manager.reconcile_reports[-1].actions]
    assert "preempt" not in kinds


# --- bitstream cache -----------------------------------------------------------------


def test_cache_lru_eviction_order():
    from repro.hardware import Bitstream

    def image(n):
        return Bitstream(
            role_name=f"r{n}", role_budget=ResourceBudget(alms=n), clock_mhz=175.0
        )

    cache = BitstreamCache()  # four images per node
    for n in (1, 2, 3, 4):
        cache.install("m0", image(n))
    assert cache.lookup("m0", image(1))  # 1 becomes MRU: order 2, 3, 4, 1
    cache.install("m0", image(5))  # evicts 2 (LRU)
    staged = cache.staged_on("m0")
    assert [b.role_name for b in staged] == ["r3", "r4", "r1", "r5"]
    assert cache.evictions == 1
    assert not cache.lookup("m0", image(2))


def warm_replacement_times(seed):
    """(cold re-place ns, warm re-place ns, scheduler) for one ring."""
    results = []
    for cache in (None, BitstreamCache()):
        eng, dc = make_dc(seed=seed)
        scheduler = ClusterScheduler(dc, bitstream_cache=cache)
        svc = echo_service("tenant")
        (first,) = scheduler.deploy(svc, fraction=0.5)
        scheduler.release(first)
        start = eng.now
        scheduler.deploy(svc, fraction=0.5)
        results.append((eng.now - start, scheduler))
    (cold, _), (warm, warm_scheduler) = results
    return cold, warm, warm_scheduler


def test_warm_cache_cuts_replacement_to_model_reload():
    cold, warm, scheduler = warm_replacement_times(seed=7)
    # The staged images downgrade every region node's reconfiguration
    # to a model reload: orders of magnitude below the cold path.
    assert warm == pytest.approx(MODEL_RELOAD_WORST_NS)
    assert warm < cold / 50
    report = scheduler.capacity_report()
    assert report.bitstream_hits == 2  # both region nodes were staged
    assert report.bitstream_misses > 0  # the initial configure


def test_warm_replacement_is_seed_deterministic():
    first = warm_replacement_times(seed=11)
    second = warm_replacement_times(seed=11)
    assert first[:2] == second[:2]
    assert first[2].bitstream_cache.stats() == second[2].bitstream_cache.stats()


def test_manual_uncordon_keeps_staged_images():
    _eng, dc = make_dc(seed=13)
    cache = BitstreamCache()
    scheduler = ClusterScheduler(dc, bitstream_cache=cache)
    scheduler.deploy(echo_service("tenant"), fraction=0.5)
    other = slot_at(dc, 0, 1)
    machines = [s.machine_id for s in dc.ring_servers(other)]
    staged = {m: cache.staged_on(m) for m in machines}
    assert all(staged.values())
    scheduler.cordon(other, reason="burn-in")
    # An operator's uncordon returns the ring with its staging DRAM
    # intact.
    scheduler.uncordon(other)
    assert {m: cache.staged_on(m) for m in machines} == staged
