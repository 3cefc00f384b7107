"""Tests for the cluster layer: scheduler, deployments, load balancer."""

import pytest

from repro.cluster import (
    ClusterManager,
    ClusterScheduler,
    Deployment,
    InsufficientClusterCapacity,
    LoadBalancer,
    NoHealthyDeployment,
    RequestAdapter,
    RingSlot,
)
from repro.fabric import Datacenter, TorusTopology
from repro.hardware import Bitstream, ResourceBudget
from repro.host.slots import INTERRUPT_WAKE_NS, shared_slot_allocator
from repro.ranking.engine import ScoringEngine
from repro.ranking.models import ModelLibrary
from repro.ranking.pipeline import ranking_spec
from repro.services.mapping_manager import RoleSpec, ServiceDefinition
from repro.shell import PacketKind, Role
from repro.shell.role import PassthroughRole
from repro.sim import AllOf, Engine
from repro.sim.units import SEC
from repro.workloads import ClosedLoop, OpenLoopInjector, PoissonArrivals, TraceGenerator


class ClusterEchoRole(Role):
    """Head role of the test service: scores a request after a delay."""

    name = "echo"
    delay_ns = 2_000.0

    def reply(self, packet):
        return "scored"

    def handle(self, packet):
        yield self.shell.engine.timeout(self.delay_ns)
        if packet.kind is PacketKind.REQUEST:
            yield self.send(packet.response_to(size_bytes=64, payload=self.reply(packet)))


class PayloadEchoRole(ClusterEchoRole):
    """Answers each request with the request's own payload."""

    def reply(self, packet):
        return packet.payload


class LateEchoRole(ClusterEchoRole):
    """Answers after 6 s: past submit()'s 5 s default timeout."""

    delay_ns = 6 * SEC


def echo_service(name="echo-service", role=ClusterEchoRole) -> ServiceDefinition:
    def bitstream(role):
        return Bitstream(
            role_name=role, role_budget=ResourceBudget(alms=1000), clock_mhz=175.0
        )

    return ServiceDefinition(
        name=name,
        roles=(
            RoleSpec(
                name="echo",
                bitstream=bitstream("echo"),
                factory=lambda assignment, name: role(),
            ),
        ),
        spare=RoleSpec(
            name="spare",
            bitstream=bitstream("spare"),
            factory=lambda assignment, name: PassthroughRole(),
        ),
    )


def small_datacenter(seed=3, pods=2):
    eng = Engine(seed=seed)
    return eng, Datacenter(eng, num_pods=pods, topology=TorusTopology(width=2, height=3))


@pytest.fixture
def request_pool():
    return [object() for _ in range(8)]


# --- scheduler placement -----------------------------------------------------------


def test_spread_policy_alternates_pods():
    _eng, dc = small_datacenter()
    scheduler = ClusterScheduler(dc)
    deployments = scheduler.deploy(echo_service(), rings=4)
    pods = [scheduler.slot_of(d).pod_id for d in deployments]
    assert pods == [0, 1, 0, 1]


def test_spread_cursor_persists_across_deploy_calls():
    _eng, dc = small_datacenter()
    scheduler = ClusterScheduler(dc)
    (a,) = scheduler.deploy(echo_service("a"), rings=1)
    (b,) = scheduler.deploy(echo_service("b"), rings=1)
    # Incremental scale-up must keep rotating pods, not restart at pod 0.
    assert [scheduler.slot_of(d).pod_id for d in (a, b)] == [0, 1]


def test_unknown_policy_rejected():
    # Placement has one policy (spread): a caller still naming one
    # fails loudly rather than being silently spread.
    _eng, dc = small_datacenter()
    with pytest.raises(TypeError):
        ClusterScheduler(dc).deploy(echo_service(), policy="pack")


def test_capacity_exhaustion_raises():
    _eng, dc = small_datacenter()  # 2 pods x 2 rings
    scheduler = ClusterScheduler(dc)
    scheduler.deploy(echo_service(), rings=4)
    with pytest.raises(InsufficientClusterCapacity):
        scheduler.deploy(echo_service("second"), rings=1)


def test_capacity_report_and_release():
    _eng, dc = small_datacenter()
    scheduler = ClusterScheduler(dc)
    deployments = scheduler.deploy(echo_service(), rings=2)
    report = scheduler.capacity_report()
    assert (report.total_rings, report.occupied_rings, report.free_rings) == (4, 2, 2)
    # 3-node ring, 1 active role -> 2 spares per ring.
    assert report.total_spare_nodes == 4
    assert report.utilization == pytest.approx(0.5)

    freed = scheduler.release(deployments[0])
    assert freed == RingSlot(0, 0)
    assert scheduler.capacity_report().occupied_rings == 1
    assert RingSlot(0, 0) in scheduler.free_slots()
    # The stale assignment must leave the mapping manager, so later
    # failure reports no longer act on the released ring.
    assert deployments[0].assignment not in (
        scheduler.mapping_manager(0).assignments
    )
    # spread placed deployments[1] on pod 1; its assignment survives.
    assert deployments[1].assignment in scheduler.mapping_manager(1).assignments
    with pytest.raises(KeyError):
        scheduler.release(deployments[0])


# --- cordon accounting (repair-loop regressions) -------------------------------------


def test_cordon_rejects_occupied_and_unknown_slots():
    """Regression: cordoning an occupied ring would leave it in both
    ``_occupied`` and the cordon set, double-subtracting from
    ``free_rings``; an unknown slot is a caller bug either way."""
    _eng, dc = small_datacenter()
    scheduler = ClusterScheduler(dc)
    (deployment,) = scheduler.deploy(echo_service(), rings=1)
    occupied_slot = scheduler.slot_of(deployment)
    with pytest.raises(ValueError):
        scheduler.cordon(occupied_slot)
    with pytest.raises(ValueError):
        scheduler.cordon(RingSlot(99, 0))
    # The rejected calls left the books untouched.
    report = scheduler.capacity_report()
    assert report.cordoned_rings == 0
    assert report.free_rings == report.total_rings - 1


def test_uncordon_rejects_unknown_slot():
    """Regression: ``uncordon`` silently ``discard``-ed slots that were
    never cordoned, letting typos pass unnoticed mid-experiment."""
    _eng, dc = small_datacenter()
    scheduler = ClusterScheduler(dc)
    with pytest.raises(KeyError):
        scheduler.uncordon(RingSlot(0, 1))
    scheduler.cordon(RingSlot(0, 1), reason="flaky card")
    assert scheduler.cordon_reason(RingSlot(0, 1)) == "flaky card"
    scheduler.uncordon(RingSlot(0, 1))
    with pytest.raises(KeyError):
        scheduler.uncordon(RingSlot(0, 1))  # second uncordon is a bug too


def test_capacity_report_invariant_under_cordon_churn():
    """free + occupied + cordoned == total, and free never negative,
    through deploy / cordon / release / uncordon churn."""
    _eng, dc = small_datacenter()
    scheduler = ClusterScheduler(dc)

    def check():
        report = scheduler.capacity_report()
        assert report.free_rings >= 0
        assert (
            report.free_rings + report.occupied_rings + report.cordoned_rings
            == report.total_rings
        )
        return report

    deployments = scheduler.deploy(echo_service(), rings=2)
    check()
    scheduler.cordon(RingSlot(1, 1))
    check()
    freed = scheduler.release(deployments[0])
    check()
    scheduler.cordon(freed)
    report = check()
    assert report.cordoned_rings == 2
    scheduler.uncordon(freed)
    scheduler.uncordon(RingSlot(1, 1))
    report = check()
    assert report.cordoned_rings == 0


def test_ring_slot_enumeration_is_lazy():
    _eng, dc = small_datacenter()
    assert len(dc.ring_slots()) == dc.total_rings == 4
    assert dc.rings_per_pod == 2
    assert dc._pods == {}  # enumeration must not build pods


# --- deployment dispatch ------------------------------------------------------------


def test_submit_roundtrip_and_accounting(request_pool):
    eng, dc = small_datacenter()
    scheduler = ClusterScheduler(dc)
    (deployment,) = scheduler.deploy(echo_service(), rings=1)
    results = []

    def driver():
        response = yield from deployment.submit(request_pool[0])
        results.append(response)

    eng.process(driver())
    eng.run()
    assert len(results) == 1
    assert results[0].payload == "scored"
    assert deployment.completed == 1
    assert deployment.outstanding == 0
    assert len(deployment.latencies_ns) == 1


def test_timed_out_lease_is_quarantined_until_slot_drains():
    eng, dc = small_datacenter()
    scheduler = ClusterScheduler(dc)
    (deployment,) = scheduler.deploy(echo_service(), rings=1, slots_per_server=1)
    server = deployment.injection_servers()[0]
    results = []

    def driver():
        # 1 ns timeout: guaranteed RequestTimeout; the late response
        # must NOT be swallowed as the second request's response.
        first = yield from deployment.submit(object(), server=server, timeout_ns=1.0)
        second = yield from deployment.submit(object(), server=server)
        results.append((first, second))

    eng.process(driver())
    eng.run()
    first, second = results[0]
    assert first is None
    assert deployment.timeouts == 1
    assert second is not None and second.payload == "scored"
    assert deployment.completed == 1
    assert deployment.outstanding == 0


def test_killing_an_in_flight_request_returns_its_lease():
    eng, dc = small_datacenter()
    scheduler = ClusterScheduler(dc)
    (deployment,) = scheduler.deploy(echo_service(), rings=1)
    server = deployment.injection_servers()[0]
    store = deployment._leases(server)
    request = eng.process(deployment.submit(object(), server=server))
    eng.run(until=eng.now + 1_000.0)  # the echo role answers after 2 us
    assert len(store) == 47 and deployment.outstanding == 1
    request.kill()
    assert not request.is_alive
    assert deployment.outstanding == 0
    eng.run()  # the response still arrives; its slot drains
    assert len(store) == 48
    assert not any(slot.full for slot in server.buffers.output_slots)
    assert deployment.completed == 0


def test_killing_a_request_waiting_for_a_lease_loses_no_lease():
    eng, dc = small_datacenter()
    scheduler = ClusterScheduler(dc)
    (deployment,) = scheduler.deploy(echo_service(), rings=1, slots_per_server=1)
    server = deployment.injection_servers()[0]
    store = deployment._leases(server)
    started = eng.now
    holder = eng.process(deployment.submit(object(), server=server))
    waiter = eng.process(deployment.submit(object(), server=server))
    eng.run(until=started + 1_000.0)
    assert len(store) == 0 and deployment.outstanding == 2
    waiter.kill()
    assert deployment.outstanding == 1
    eng.run()
    assert holder.value.payload == "scored"
    assert len(store) == 1  # not handed to the departed waiter
    # The waiter's 5 s lease deadline was disarmed: it kept no run alive.
    assert eng.now - started < 1_000_000.0
    assert deployment.timeouts == 0


def test_lease_released_at_the_wait_deadline_is_granted():
    """A lease handed back at the lease-wait deadline's own instant, by
    an event armed before the wait, dispatches first: the waiter gets
    the lease and its request is served, not timed out."""
    eng, dc = small_datacenter()
    scheduler = ClusterScheduler(dc)
    (deployment,) = scheduler.deploy(echo_service(), rings=1, slots_per_server=1)
    server = deployment.injection_servers()[0]
    store = deployment._leases(server)
    lease = store.get().value  # the only lease: the wait is contended
    wait_ns = 1_000_000.0  # well past the echo round trip

    def releaser():
        yield eng.timeout(wait_ns)
        store.try_put(lease)

    eng.process(releaser())
    waiter = eng.process(deployment.submit(object(), server=server, timeout_ns=wait_ns))
    eng.run()
    assert waiter.value.payload == "scored"
    assert deployment.completed == 1 and deployment.timeouts == 0
    assert len(store) == 1 and deployment.outstanding == 0


def test_closed_loop_never_counts_a_late_response():
    eng, dc = small_datacenter()
    scheduler = ClusterScheduler(dc)
    (deployment,) = scheduler.deploy(echo_service(role=LateEchoRole), rings=1)
    server = deployment.injection_servers()[0]
    injector = OpenLoopInjector(eng, deployment, ClosedLoop(server, threads=1), [object()])
    stats = eng.run_until(injector.run(2))
    # The first response lands after the second request was sent; it
    # must not complete the second request.
    assert stats.completed == 0 and stats.timeouts == 2
    eng.run()  # both late responses land and their slots drain
    assert stats.completed == 0 and stats.timeouts == 2
    assert stats.offered == stats.admitted + stats.rejected == 2
    assert stats.admitted == stats.completed + stats.timeouts
    assert len(deployment._leases(server)) == 48
    assert not any(slot.full for slot in server.buffers.output_slots)


def test_next_service_on_a_released_ring_skips_a_draining_slot():
    """Regression: release handed every slot back to the ring's
    servers, so the next service on the ring collided with a
    predecessor's quarantine drain that still waited on slot 0."""
    eng, dc = small_datacenter(pods=1)
    scheduler = ClusterScheduler(dc)
    (first,) = scheduler.deploy(
        echo_service("first", role=LateEchoRole), rings=1
    )
    server = first.injection_servers()[0]
    timed_out = eng.process(first.submit(object(), server=server, timeout_ns=1 * SEC))
    assert eng.run_until(timed_out) is None and first.timeouts == 1
    slot = scheduler.release(first)
    (second,) = scheduler.deploy(echo_service("second"), rings=1)
    assert scheduler.slot_of(second) == slot
    response = eng.run_until(eng.process(second.submit(object(), server=server)))
    assert response.payload == "scored"
    # The drain still holds slot 0: the release detached the late role,
    # so its response never lands and the slot stays retired.
    eng.run()
    assert shared_slot_allocator(server).owners[0] == first.name


def test_drain_hands_a_released_slot_back_when_the_late_response_lands():
    def timed_out_then_released(timeout_ns):
        eng, dc = small_datacenter(pods=1)
        scheduler = ClusterScheduler(dc)
        (deployment,) = scheduler.deploy(echo_service(), rings=1)
        server = deployment.injection_servers()[0]
        started = eng.now
        request = eng.process(
            deployment.submit(
                object(), server=server, timeout_ns=timeout_ns, include_prep=False
            )
        )
        response = eng.run_until(request)
        scheduler.release(deployment)
        return eng, server, response, eng.now - started

    _eng, _server, response, round_trip_ns = timed_out_then_released(5 * SEC)
    assert response is not None
    # Time out once the role has answered, while the response is still
    # on its way back, and release at once: the drain holds slot 0...
    landed_ns = round_trip_ns - INTERRUPT_WAKE_NS
    eng, server, response, _ = timed_out_then_released(0.9 * landed_ns)
    allocator = shared_slot_allocator(server)
    assert response is None and allocator.free_count == 63
    eng.run()  # ...until the response lands, then hands it back.
    assert allocator.free_count == 64 and not allocator.owners
    assert not any(slot.full for slot in server.buffers.output_slots)


def test_release_keeps_an_in_flight_slot_until_its_drain_frees_it():
    """Regression: release freed a slot whose request was still in
    flight; its later timeout drained a slot a successor could hold, and
    the late response then freed the successor's slot."""

    def submitted(timeout_ns):
        eng, dc = small_datacenter(pods=1)
        scheduler = ClusterScheduler(dc)
        (deployment,) = scheduler.deploy(echo_service(), rings=1)
        server = deployment.injection_servers()[0]
        started = eng.now
        request = eng.process(
            deployment.submit(
                object(), server=server, timeout_ns=timeout_ns, include_prep=False
            )
        )
        return eng, scheduler, deployment, server, request, started

    eng, _, _, _, request, started = submitted(5 * SEC)
    assert eng.run_until(request) is not None
    landed_ns = eng.now - started - INTERRUPT_WAKE_NS
    # Release once the role has answered, time out before the response
    # lands: the slot is in flight at release and drains after it.
    eng, scheduler, deployment, server, request, started = submitted(0.9 * landed_ns)
    eng.run_until(eng.timeout(0.8 * landed_ns))
    assert deployment.outstanding == 1
    scheduler.release(deployment)
    allocator = shared_slot_allocator(server)
    assert allocator.owners == {0: deployment.name} and allocator.free_count == 63
    successor = allocator.acquire(48, owner="successor")
    assert 0 not in successor
    assert eng.run_until(request) is None and deployment.timeouts == 1
    eng.run()  # the late response lands and the drain frees slot 0
    assert allocator.owners == {slot_id: "successor" for slot_id in successor}
    assert allocator.free_count == 16
    assert not any(slot.full for slot in server.buffers.output_slots)


def test_closed_and_open_loops_share_one_lease_pool(monkeypatch, request_pool):
    eng, dc = small_datacenter()
    scheduler = ClusterScheduler(dc)
    (deployment,) = scheduler.deploy(echo_service(role=PayloadEchoRole), rings=1)
    server = deployment.injection_servers()[0]
    served = []
    submit = deployment.submit

    def recorded_submit(request, **kwargs):
        response = yield from submit(request, **kwargs)
        served.append((request, response))
        return response

    monkeypatch.setattr(deployment, "submit", recorded_submit)

    class SameServer:
        """Open-loop sink injecting every arrival from ``server``."""

        outstanding = 0

        def submit(self, request, timeout_ns):
            return deployment.submit(request, server=server, timeout_ns=timeout_ns)

    closed = [
        OpenLoopInjector(eng, deployment, ClosedLoop(server, threads=4), request_pool)
        for _ in range(2)
    ]
    open_loop = OpenLoopInjector(eng, SameServer(), PoissonArrivals(200_000.0), request_pool)
    eng.run_until(AllOf(eng, [injector.run(20) for injector in closed] + [open_loop.run(40)]))
    assert [injector.stats.completed for injector in closed] == [20, 20]
    assert open_loop.stats.completed == 40
    assert len(served) == 80
    assert all(response.payload is request for request, response in served)
    assert len(deployment._leases(server)) == 48


def test_submit_before_deploy_raises():
    eng, dc = small_datacenter()
    deployment = Deployment(eng, dc.pod(0), echo_service())
    with pytest.raises(RuntimeError):
        next(deployment.submit(object()))


def test_health_weight_tracks_exclusions():
    _eng, dc = small_datacenter()
    scheduler = ClusterScheduler(dc)
    (deployment,) = scheduler.deploy(echo_service(), rings=1)
    assert deployment.health_weight() == pytest.approx(1.0)
    spare_node = deployment.assignment.spare_nodes[0]
    deployment.assignment.exclude(spare_node)
    assert deployment.health_weight() == pytest.approx(2 / 3)


def test_default_adapter_passthrough():
    adapter = RequestAdapter()
    sentinel = object()
    assert adapter.payload_for(sentinel) is sentinel
    assert adapter.size_of(sentinel) == 64
    assert list(adapter.prep(None)) == []


# --- load balancer policies ----------------------------------------------------------


class StubDeployment:
    def __init__(self, name, outstanding=0, weight=1.0):
        self.name = name
        self.outstanding = outstanding
        self._weight = weight

    def health_weight(self):
        return self._weight


def test_least_outstanding_picks_minimum():
    eng = Engine()
    a = StubDeployment("a", outstanding=5)
    b = StubDeployment("b", outstanding=1)
    c = StubDeployment("c", outstanding=3)
    balancer = LoadBalancer(eng, [a, b, c], policy="least_outstanding")
    assert balancer.pick().name == "b"
    assert balancer.outstanding == 9


def test_weighted_health_prefers_healthy():
    eng = Engine(seed=9)
    healthy = StubDeployment("healthy", weight=1.0)
    degraded = StubDeployment("degraded", weight=0.05)
    balancer = LoadBalancer(eng, [healthy, degraded], policy="weighted_health")
    picks = [balancer.pick().name for _ in range(200)]
    assert picks.count("healthy") > picks.count("degraded") * 5


def test_no_healthy_deployment_raises():
    eng = Engine()
    balancer = LoadBalancer(eng, [StubDeployment("a", weight=0.0)])
    with pytest.raises(NoHealthyDeployment):
        balancer.pick()


def test_balancer_validates_inputs():
    eng = Engine()
    with pytest.raises(ValueError):
        LoadBalancer(eng, [StubDeployment("a")], policy="fastest")
    # An empty rotation (a service before its first placement) is
    # valid; it serves nothing.
    with pytest.raises(NoHealthyDeployment):
        LoadBalancer(eng, []).pick()


def test_balancer_spreads_load_end_to_end(request_pool):
    eng, dc = small_datacenter(seed=5)
    scheduler = ClusterScheduler(dc)
    deployments = scheduler.deploy(echo_service(), rings=4)
    balancer = LoadBalancer(eng, deployments, policy="least_outstanding")
    injector = OpenLoopInjector(
        eng, balancer, PoissonArrivals(100_000.0), request_pool
    )
    stats = eng.run_until(injector.run(80))
    assert stats.completed == 80
    assert balancer.completed == 80
    # Every ring took a share of the load.
    assert all(d.completed > 0 for d in deployments)
    assert sum(d.completed for d in deployments) == 80


# --- determinism (same seed => byte-identical results) -------------------------------


def full_cluster_run(seed):
    eng, dc = small_datacenter(seed=seed)
    scheduler = ClusterScheduler(dc)
    deployments = scheduler.deploy(echo_service(), rings=4)
    balancer = LoadBalancer(eng, deployments, policy="least_outstanding")
    pool = [object() for _ in range(8)]
    injector = OpenLoopInjector(
        eng, balancer, PoissonArrivals(150_000.0), pool, max_queue_depth=32
    )
    stats = eng.run_until(injector.run(120))
    slots = [scheduler.slot_of(d) for d in deployments]
    placements = [
        (d.service.name, s.pod_id, s.ring_x) for d, s in zip(deployments, slots, strict=True)
    ]
    return placements, stats


def test_cluster_run_is_deterministic():
    placements_a, stats_a = full_cluster_run(seed=1234)
    placements_b, stats_b = full_cluster_run(seed=1234)
    assert placements_a == placements_b
    # Byte-identical latency samples, not merely statistically close.
    assert stats_a.latencies_ns == stats_b.latencies_ns
    assert (stats_a.admitted, stats_a.rejected, stats_a.completed) == (
        stats_b.admitted,
        stats_b.rejected,
        stats_b.completed,
    )


def test_different_seed_changes_arrivals():
    _, stats_a = full_cluster_run(seed=1)
    _, stats_b = full_cluster_run(seed=2)
    assert stats_a.latencies_ns != stats_b.latencies_ns


def repair_loop_run(seed):
    """A failure + timed-repair scenario, summarised for comparison."""
    from repro.cluster import (
        ClusterFailureInjector,
        ClusterManager,
        RepairPolicy,
        ServiceSpec,
    )
    from repro.cluster import echo_service as shared_echo_service
    from repro.sim.units import SEC

    eng, dc = small_datacenter(seed=seed)
    manager = ClusterManager(
        dc,
        repair_policy=RepairPolicy(
            distribution="lognormal", mean_ns=1.5 * SEC, sigma=0.6
        ),
    )
    handle = manager.apply(
        ServiceSpec(
            service=shared_echo_service(),
            replicas=2,
            health_period_ns=0.2 * SEC,
        )
    )
    injector = ClusterFailureInjector(dc)
    injector.kill_ring(handle.deployments[0])
    eng.run(until=10 * SEC)
    tickets = [
        (t.slot, t.opened_ns, t.due_ns, t.closed_ns, t.outcome)
        for t in manager.repairs.tickets
    ]
    slots = [manager.scheduler.slot_of(d) for d in handle.deployments]
    placements = [
        (d.service.name, s.pod_id, s.ring_x) for d, s in zip(handle.deployments, slots, strict=True)
    ]
    return tickets, placements


def test_repair_loop_is_deterministic():
    """Same seed => identical ticket open/close times AND identical
    post-repair placements; the repair timers draw from the engine's
    named RNG streams like everything else."""
    tickets_a, placements_a = repair_loop_run(seed=77)
    tickets_b, placements_b = repair_loop_run(seed=77)
    assert tickets_a == tickets_b
    assert placements_a == placements_b
    assert tickets_a  # the scenario actually opened (and closed) tickets
    assert all(outcome == "repaired" for *_rest, outcome in tickets_a)


def test_repair_times_vary_with_seed():
    tickets_a, _ = repair_loop_run(seed=5)
    tickets_b, _ = repair_loop_run(seed=6)
    assert [t[2] - t[1] for t in tickets_a] != [t[2] - t[1] for t in tickets_b]


# --- ranking on the cluster layer ----------------------------------------------------


def test_ranking_cluster_integration():
    eng = Engine(seed=17)
    manager = ClusterManager(
        Datacenter(eng, num_pods=2, topology=TorusTopology(width=2, height=8))
    )
    library = ModelLibrary.default(scale=0.1)
    scoring = ScoringEngine(library)
    handle = manager.apply(ranking_spec(scoring, replicas=2))
    assert [manager.scheduler.slot_of(d).pod_id for d in handle.deployments] == [0, 1]

    generator = TraceGenerator(seed=23)
    pool = [generator.request() for _ in range(12)]
    for request in pool:
        scoring.score(request.document, library[request.document.model_id])
    injector = OpenLoopInjector(
        eng, manager.endpoint("bing-ranking"), PoissonArrivals(30_000.0), pool
    )
    stats = eng.run_until(injector.run(40))
    assert stats.completed == 40
    assert all(d.completed > 0 for d in handle.deployments)
