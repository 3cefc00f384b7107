"""Tests for servers, Ethernet, pods and the datacenter deployment."""

import pytest

from repro.fabric import (
    Datacenter,
    EthernetNetwork,
    Pod,
    RpcTimeout,
    Server,
    ServerState,
    TorusTopology,
)
from repro.fabric.cables import WiringPlan
from repro.host import FpgaDriver, SlotLease
from repro.host.slots import shared_slot_allocator
from repro.hardware import Bitstream, ResourceBudget
from repro.hardware.fpga import FpgaState
from repro.shell import PacketKind, Port, Role
from repro.sim import Engine, SEC, US


def bitstream(name="role"):
    return Bitstream(
        role_name=name, role_budget=ResourceBudget(alms=1000), clock_mhz=175.0
    )


class EchoRole(Role):
    name = "echo"

    def handle(self, packet):
        yield self.shell.engine.timeout(1_000.0)
        yield self.send(packet.response_to(size_bytes=16, payload="ok"))


# --- Ethernet -----------------------------------------------------------------


def test_rpc_roundtrip():
    eng = Engine()
    net = EthernetNetwork(eng)
    net.register("m1", lambda msg: f"echo:{msg}")

    def caller(eng, net):
        response = yield net.rpc("m1", "hello")
        return response

    proc = eng.process(caller(eng, net))
    eng.run()
    assert proc.value == "echo:hello"
    assert eng.now == pytest.approx(2 * EthernetNetwork.ONE_WAY_LATENCY_NS)


def test_rpc_timeout_on_unregistered():
    eng = Engine()
    net = EthernetNetwork(eng)

    def caller(eng, net):
        try:
            yield net.rpc("ghost", "ping", timeout_ns=1 * SEC)
            return "answered"
        except RpcTimeout:
            return "timeout"

    proc = eng.process(caller(eng, net))
    eng.run()
    assert proc.value == "timeout"
    assert net.rpcs_timed_out == 1


def test_rpc_timeout_on_raising_handler():
    eng = Engine()
    net = EthernetNetwork(eng)

    def bad_handler(msg):
        raise RuntimeError("crashed")

    net.register("m1", bad_handler)

    def caller(eng, net):
        try:
            yield net.rpc("m1", "ping")
            return "answered"
        except RpcTimeout:
            return "timeout"

    proc = eng.process(caller(eng, net))
    eng.run()
    assert proc.value == "timeout"


# --- Server --------------------------------------------------------------------


def test_server_reboot_ladder():
    eng = Engine()
    server = Server(eng, "m0", (0, 0))
    done = server.soft_reboot()
    assert server.state is ServerState.SOFT_REBOOTING
    assert not server.is_responsive
    eng.run_until(done)
    assert server.state is ServerState.UP
    assert eng.now == pytest.approx(Server.SOFT_REBOOT_NS)


def test_hard_reboot_clears_fpga_config():
    eng = Engine()
    server = Server(eng, "m0", (0, 0))
    done = server.fpga.reconfigure(bitstream())
    eng.run_until(done)
    assert server.fpga.state is FpgaState.CONFIGURED
    reboot = server.hard_reboot()
    eng.run_until(reboot)
    assert server.fpga.state is FpgaState.UNCONFIGURED


def test_dead_server_cannot_reboot():
    eng = Engine()
    server = Server(eng, "m0", (0, 0))
    server.mark_dead()
    with pytest.raises(RuntimeError):
        server.soft_reboot()
    server.replace()
    assert server.is_responsive


def test_unmasked_nmi_crashes_server():
    eng = Engine()
    server = Server(eng, "m0", (0, 0))
    done = server.fpga.reconfigure(bitstream())  # no driver protocol!
    eng.run_until(done)
    assert server.state is ServerState.CRASHED
    assert server.crash_count == 1


def test_driver_masks_nmi_during_reconfiguration():
    eng = Engine()
    server = Server(eng, "m0", (0, 0))
    driver = FpgaDriver(server)
    done = driver.reconfigure(bitstream())
    eng.run_until(done)
    assert server.state is ServerState.UP
    assert server.crash_count == 0
    assert not server.nmi_masked  # unmasked afterwards
    assert driver.reconfigurations == 1


def test_health_rpc_handler():
    eng = Engine()
    server = Server(eng, "m0", (0, 0))
    assert server.health_rpc_handler("ping") == "pong"
    health = server.health_rpc_handler("health")
    assert health["machine_id"] == "m0"
    server.crash()
    assert server.health_rpc_handler("ping") is None


def test_run_on_core_contends():
    eng = Engine()
    server = Server(eng, "m0", (0, 0))
    finish_times = []

    def job(eng, server):
        yield from server.run_on_core(1000.0)
        finish_times.append(eng.now)

    for _ in range(server.CORE_COUNT + 1):
        eng.process(job(eng, server))
    eng.run()
    # 12 jobs run at once; the 13th waits for a free core.
    assert finish_times.count(1000.0) == server.CORE_COUNT
    assert finish_times[-1] == pytest.approx(2000.0)


# --- Pod ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_pod_engine():
    """A 3x4 pod (cheap) used by several read-only tests."""
    eng = Engine(seed=11)
    pod = Pod(eng, topology=TorusTopology(width=3, height=4))
    return eng, pod


def test_pod_builds_all_servers_and_links(small_pod_engine):
    _eng, pod = small_pod_engine
    assert len(pod.servers) == 12
    assert len(pod.links) == 24
    assert len(pod.assemblies) == 3 + 4  # columns + rows


def test_pod_routing_tables_complete(small_pod_engine):
    _eng, pod = small_pod_engine
    for server in pod.servers.values():
        assert len(server.shell.router.routing_table) == 11


def test_pod_ring(small_pod_engine):
    _eng, pod = small_pod_engine
    ring = pod.ring(1)
    assert [s.node_id for s in ring] == [(1, 0), (1, 1), (1, 2), (1, 3)]


def test_pod_neighbor_ids_match_topology(small_pod_engine):
    _eng, pod = small_pod_engine
    server = pod.server_at((0, 0))
    east_neighbor = pod.topology.neighbor((0, 0), Port.EAST)
    assert server.shell.neighbor_id(Port.EAST) == pod.machine_id(east_neighbor)


def test_pod_end_to_end_request_response():
    eng = Engine(seed=7)
    pod = Pod(eng, topology=TorusTopology(width=3, height=4))
    pod.release_all_rx_halts()
    dst_server = pod.server_at((2, 3))
    dst_server.shell.attach_role(EchoRole())
    server = pod.server_at((0, 0))
    (slot_id,) = shared_slot_allocator(server).acquire(1, owner="test")
    lease = SlotLease(server, slot_id)
    results = []

    def thread(eng):
        started = eng.now
        response = yield from lease.request(dst=(2, 3), size_bytes=4096)
        results.append((response, eng.now - started))

    eng.process(thread(eng))
    eng.run()
    assert len(results) == 1
    response, latency_ns = results[0]
    assert response.payload == "ok"
    assert response.kind is PacketKind.RESPONSE
    assert latency_ns < 100 * US


def test_pod_rx_halt_blocks_until_release():
    eng = Engine(seed=7)
    pod = Pod(eng, topology=TorusTopology(width=3, height=4))
    # NOT releasing RX halts: fabric traffic must be discarded.
    dst_server = pod.server_at((1, 0))
    role = EchoRole()
    dst_server.shell.attach_role(role)
    server = pod.server_at((0, 0))
    (slot_id,) = shared_slot_allocator(server).acquire(1, owner="test")
    lease = SlotLease(server, slot_id)
    outcome = []

    def thread(eng):
        try:
            yield from lease.request(dst=(1, 0), size_bytes=512, timeout_ns=5_000_000.0)
            outcome.append("response")
        except Exception:
            outcome.append("timeout")

    eng.process(thread(eng))
    eng.run()
    assert outcome == ["timeout"]
    assert role.packets_handled == 0


def test_miswired_pod_detected_by_neighbor_ids():
    eng = Engine(seed=7)
    topology = TorusTopology(width=3, height=4)
    wiring = WiringPlan(topology)
    wiring.swap(0, 2)  # cross-connect two east-west cables
    pod = Pod(eng, topology=topology, wiring=wiring)
    mismatches = []
    for node, server in pod.servers.items():
        for port in server.shell.endpoints:
            seen = server.shell.neighbor_id(port)
            expected = pod.machine_id(topology.neighbor(node, port))
            if seen != expected:
                mismatches.append((node, port.value, expected, seen))
    assert mismatches  # the Health Monitor would flag these


def test_cable_assembly_failure_breaks_column():
    eng = Engine(seed=7)
    pod = Pod(eng, topology=TorusTopology(width=3, height=4))
    assembly = next(a for name, a in pod.assemblies.items() if "col0" in name)
    assembly.fail()
    assert all(link.broken for link in assembly.links)
    server = pod.server_at((0, 0))
    assert server.shell.neighbor_id(Port.SOUTH) is None
    assembly.repair()
    assert server.shell.neighbor_id(Port.SOUTH) is not None


# --- Datacenter ----------------------------------------------------------------------


def test_datacenter_dimensions():
    eng = Engine()
    dc = Datacenter(eng)
    assert dc.total_servers == 1_632
    assert dc.total_links == 3_264
    assert dc.racks == 17
    assert dc.num_pods == 34


def test_datacenter_lazy_pod_build():
    eng = Engine()
    dc = Datacenter(eng, num_pods=4, topology=TorusTopology(width=2, height=2))
    assert dc._pods == {}  # built on first use
    pod = dc.pod(2)
    assert pod.pod_id == 2
    assert dc.pod(2) is pod  # cached
    assert list(dc._pods) == [2]
    with pytest.raises(ValueError):
        dc.pod(9)


def test_manufacturing_test_matches_paper_scale():
    eng = Engine(seed=2014)
    dc = Datacenter(eng)
    report = dc.manufacturing_test()
    # Expect ~7 failed cards and ~1 failed link; allow Monte Carlo spread.
    assert 1 <= report.failed_cards <= 16
    assert 0 <= report.failed_links <= 5
    assert report.card_failure_rate == pytest.approx(0.004, abs=0.006)


def test_manufacturing_test_deterministic():
    a = Datacenter(Engine(seed=1)).manufacturing_test()
    b = Datacenter(Engine(seed=1)).manufacturing_test()
    assert (a.failed_cards, a.failed_links) == (b.failed_cards, b.failed_links)
