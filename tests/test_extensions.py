"""Tests for the paper's future-work extension we implement.

§3.2: partial reconfiguration — role swap with the shell still live,
routing inter-FPGA traffic throughout, no PCIe NMI.
"""

import pytest

from repro.fabric import Pod, ServerState, TorusTopology
from repro.hardware import Bitstream, ResourceBudget, ReconfigError
from repro.hardware.bitstream import ShellVersion
from repro.hardware.constants import FULL_RECONFIG_NS, PARTIAL_RECONFIG_NS
from repro.shell import Role
from repro.sim import Engine, SEC


def bitstream(name="role", shell=None):
    return Bitstream(
        role_name=name,
        role_budget=ResourceBudget(alms=1000),
        clock_mhz=175.0,
        shell_version=shell or ShellVersion(),
    )


class EchoRole(Role):
    name = "echo"

    def handle(self, packet):
        yield self.shell.engine.timeout(500.0)
        yield self.send(packet.response_to(16, "ok"))


def build_pod(seed=9):
    eng = Engine(seed=seed)
    pod = Pod(eng, topology=TorusTopology(width=3, height=4))
    return eng, pod


def configure_all(eng, pod):
    from repro.host import FpgaDriver

    # The driver protocol (NMI masking) keeps hosts alive (§3.4).
    events = [FpgaDriver(s).reconfigure(bitstream()) for s in pod.servers.values()]
    for event in events:
        eng.run_until(event)
    pod.release_all_rx_halts()


# --- partial reconfiguration -------------------------------------------------


def test_partial_reconfig_needs_live_shell():
    eng, pod = build_pod()
    server = pod.server_at((0, 0))
    with pytest.raises(ReconfigError):
        server.fpga.partial_reconfigure(bitstream())  # unconfigured


def test_partial_reconfig_is_fast_and_keeps_device_up():
    eng, pod = build_pod()
    configure_all(eng, pod)
    server = pod.server_at((0, 0))
    start = eng.now
    done = server.shell.partial_reconfigure(bitstream("new-role"))
    eng.run_until(done)
    assert eng.now - start == pytest.approx(PARTIAL_RECONFIG_NS)
    assert PARTIAL_RECONFIG_NS < FULL_RECONFIG_NS / 5
    assert server.fpga.configured_role == "new-role"
    assert server.fpga.partial_reconfig_count == 1


def test_partial_reconfig_raises_no_nmi():
    eng, pod = build_pod()
    configure_all(eng, pod)
    server = pod.server_at((1, 1))
    assert not server.nmi_masked  # no driver protocol involved
    done = server.shell.partial_reconfigure(bitstream("swap"))
    eng.run_until(done)
    assert server.state is ServerState.UP  # a full reconfig would crash
    assert server.crash_count == 0


def test_partial_reconfig_rejects_incompatible_shell():
    eng, pod = build_pod()
    configure_all(eng, pod)
    server = pod.server_at((0, 1))
    with pytest.raises(ReconfigError):
        server.fpga.partial_reconfigure(bitstream("v2", shell=ShellVersion(2, 0)))


def test_partial_reconfig_rejects_concurrent_reload():
    eng, pod = build_pod()
    configure_all(eng, pod)
    server = pod.server_at((0, 1))
    server.fpga.partial_reconfigure(bitstream("a"))
    with pytest.raises(ReconfigError):
        server.fpga.partial_reconfigure(bitstream("b"))


def test_traffic_routes_through_node_during_partial_reconfig():
    """The shell keeps routing while its role region reloads."""
    eng = Engine(seed=9)
    # 5-wide: (0,0) -> (2,0) must route EAST through (1,0) under DOR.
    pod = Pod(eng, topology=TorusTopology(width=5, height=2))
    configure_all(eng, pod)
    middle = pod.server_at((1, 0))
    pod.server_at((2, 0)).shell.attach_role(EchoRole())
    middle.shell.partial_reconfigure(bitstream("mid-swap"))

    from repro.host.slots import SlotLease, shared_slot_allocator

    server = pod.server_at((0, 0))
    (slot_id,) = shared_slot_allocator(server).acquire(1, owner="test")
    lease = SlotLease(server, slot_id)
    results = []

    def thread():
        response = yield from lease.request(
            dst=(2, 0), size_bytes=1024, timeout_ns=1 * SEC
        )
        results.append(response)

    eng.process(thread())
    eng.run()
    assert results and results[0].payload == "ok"
    assert middle.fpga.role_reloading is False  # finished by drain time


def test_full_reconfig_by_contrast_blocks_through_traffic():
    """Sanity contrast: a FULL reconfiguration darkens the node's links."""
    eng = Engine(seed=9)
    pod = Pod(eng, topology=TorusTopology(width=5, height=2))
    configure_all(eng, pod)
    middle = pod.server_at((1, 0))
    pod.server_at((2, 0)).shell.attach_role(EchoRole())
    middle.driver = None
    middle.nmi_masked = True
    middle.shell.safe_reconfigure(bitstream("full-swap"))

    from repro.host.slots import SlotLease, shared_slot_allocator

    server = pod.server_at((0, 0))
    (slot_id,) = shared_slot_allocator(server).acquire(1, owner="test")
    lease = SlotLease(server, slot_id)
    outcome = []

    def thread():
        try:
            yield from lease.request(dst=(2, 0), size_bytes=1024, timeout_ns=0.2 * SEC)
            outcome.append("ok")
        except Exception:
            outcome.append("timeout")

    eng.process(thread())
    eng.run()
    # The request needed (1,0)'s links mid-reconfig: dropped, timed out.
    assert outcome == ["timeout"]
