"""Tests for the watchdog and trace replay."""

from repro.analysis import replay_trace
from repro.cluster import ClusterManager, ServiceSpec, echo_service
from repro.fabric import CrashSeverity, Datacenter, Pod, TorusTopology
from repro.sim import Engine, SEC


# --- watchdog --------------------------------------------------------------------------


def crashed_spare_after_two_minutes(stop_watchdog_first: bool):
    """Transiently crash one ring spare of a managed echo service and
    return the server after 120 s of simulated time."""
    eng = Engine(seed=53)
    datacenter = Datacenter(eng, num_pods=1, topology=TorusTopology(width=2, height=3))
    manager = ClusterManager(datacenter)
    handle = manager.apply(
        ServiceSpec(service=echo_service(), replicas=1, health_period_ns=5 * SEC)
    )
    if stop_watchdog_first:
        handle.stop_watchdog()
    deployment = handle.deployments[0]
    victim = deployment.pod.server_at(deployment.assignment.spare_nodes[0])
    victim.crash(CrashSeverity.TRANSIENT)
    eng.run(until=eng.now + 120 * SEC)
    return victim


def test_watchdog_recovers_crashed_server_automatically():
    victim = crashed_spare_after_two_minutes(stop_watchdog_first=False)
    assert victim.is_responsive  # soft-rebooted by the service's watchdog
    assert victim.reboot_count == 1
    unwatched = crashed_spare_after_two_minutes(stop_watchdog_first=True)
    assert not unwatched.is_responsive
    assert unwatched.reboot_count == 0


# --- trace replay -----------------------------------------------------------------------


def test_replay_reconstructs_packet_path():
    eng = Engine(seed=56)
    pod = Pod(eng, topology=TorusTopology(width=4, height=2))
    pod.release_all_rx_halts()
    from repro.host.slots import SlotLease, shared_slot_allocator
    from repro.shell import Role

    class Echo(Role):
        name = "echo"

        def handle(self, packet):
            yield self.shell.engine.timeout(100.0)
            yield self.send(packet.response_to(16, "done"))

    pod.server_at((2, 0)).shell.attach_role(Echo())
    server = pod.server_at((0, 0))
    (slot_id,) = shared_slot_allocator(server).acquire(1, owner="test")
    lease = SlotLease(server, slot_id)
    trace_ids = []

    def thread():
        response = yield from lease.request(dst=(2, 0), size_bytes=2048)
        trace_ids.append(response.trace_id)

    eng.process(thread())
    eng.run()
    replay = replay_trace(pod, trace_ids[0])
    # Request: (0,0)->(1,0)->(2,0); response retraces. >= 4 sightings.
    assert replay.hop_count >= 4
    visited = [step.node_id for step in replay.steps]
    assert visited[0] == (0, 0)
    assert (2, 0) in visited
    assert replay.total_latency_ns > 0
    assert "trace" in replay.format()
    assert replay.stalls() == []  # nothing hung


def test_replay_exposes_stall_at_hung_stage():
    eng = Engine(seed=57)
    pod = Pod(eng, topology=TorusTopology(width=4, height=2))
    pod.release_all_rx_halts()
    from repro.host.slots import SlotLease, shared_slot_allocator
    from repro.shell import Role

    class SlowRole(Role):
        name = "slow"

        def handle(self, packet):
            yield self.shell.engine.timeout(5_000_000.0)  # a 5 ms "hang"
            yield self.send(packet.response_to(16, "late"))

    pod.server_at((2, 0)).shell.attach_role(SlowRole())
    server = pod.server_at((0, 0))
    (slot_id,) = shared_slot_allocator(server).acquire(1, owner="test")
    lease = SlotLease(server, slot_id)
    trace_ids = []

    def thread():
        response = yield from lease.request(dst=(2, 0), size_bytes=1024)
        trace_ids.append(response.trace_id)

    eng.process(thread())
    eng.run()
    replay = replay_trace(pod, trace_ids[0])
    stalls = replay.stalls()
    assert stalls  # the hang shows up as a gap
    _before, after, gap = stalls[0]
    assert gap >= 5_000_000.0 * 0.9
