"""Integration tests: two full shells wired back-to-back over SL3."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hardware import Bitstream, Fpga, FpgaState, ResourceBudget
from repro.hardware.constants import FULL_RECONFIG_NS, SEU_SCRUB_PERIOD_NS
from repro.shell import (
    Packet,
    PacketKind,
    Port,
    Role,
    Shell,
    ShellConfig,
)
from repro.shell.sl3 import Sl3Link
from repro.sim import Engine, SEC, US


def bitstream(name="role"):
    return Bitstream(
        role_name=name, role_budget=ResourceBudget(alms=1000), clock_mhz=175.0
    )


class EchoRole(Role):
    """Returns a response (half the request size) to the injector."""

    name = "echo"

    def handle(self, packet):
        yield self.shell.engine.timeout(1_000.0)  # 1 us of "work"
        response = packet.response_to(size_bytes=16, payload=("echo", packet.trace_id))
        yield self.send(response)


class ForwardRole(Role):
    """Forwards every request to a fixed next hop."""

    name = "forward"

    def __init__(self, next_hop):
        super().__init__()
        self.next_hop = next_hop

    def handle(self, packet):
        packet.dst = self.next_hop
        yield self.send(packet)


def build_pair(eng, config=None):
    """Two shells A(0,0) <-> B(1,0) wired east/west, configured, released."""
    config = config or ShellConfig()
    fpga_a = Fpga(eng, "fpga-a")
    fpga_b = Fpga(eng, "fpga-b")
    shell_a = Shell(eng, fpga_a, (0, 0), "machine-a", config=config)
    shell_b = Shell(eng, fpga_b, (1, 0), "machine-b", config=config)
    east = shell_a.create_endpoint(Port.EAST)
    west = shell_b.create_endpoint(Port.WEST)
    Sl3Link(eng, east, west, config=config.sl3, name="a-b")
    shell_a.router.set_route((1, 0), Port.EAST)
    shell_b.router.set_route((0, 0), Port.WEST)
    # Bring-up: configure both, then release RX halt (Mapping Manager).
    done_a = fpga_a.reconfigure(bitstream("src"))
    done_b = fpga_b.reconfigure(bitstream("echo"))
    eng.run_until(done_a)
    eng.run_until(done_b)
    shell_a.release_rx_halt()
    shell_b.release_rx_halt()
    return shell_a, shell_b


def test_host_to_remote_role_roundtrip():
    eng = Engine()
    shell_a, shell_b = build_pair(eng)
    shell_b.attach_role(EchoRole())
    results = []

    def host(eng, shell_a):
        request = Packet(
            kind=PacketKind.REQUEST, src=(0, 0), dst=(1, 0), size_bytes=4096
        )
        yield shell_a.buffers.fill_input(5, request)
        response = yield shell_a.buffers.consume_output(5)
        results.append((eng.now, response.payload))

    start = eng.now
    eng.process(host(eng, shell_a))
    eng.run()
    assert len(results) == 1
    _when, payload = results[0]
    assert payload[0] == "echo"
    # Round trip: two DMAs, two link hops, 1 us of role work — O(10 us).
    assert results[0][0] - start < 50 * US


def test_roles_exchange_traffic_both_ways():
    eng = Engine()
    shell_a, shell_b = build_pair(eng)
    shell_a.attach_role(ForwardRole(next_hop=(1, 0)))
    shell_b.attach_role(EchoRole())
    received = []

    def injector(eng, shell_a):
        # Request addressed to A itself: role forwards it to B.
        request = Packet(
            kind=PacketKind.REQUEST, src=(0, 0), dst=(0, 0), size_bytes=512
        )
        yield shell_a.buffers.fill_input(0, request)
        response = yield shell_a.buffers.consume_output(0)
        received.append(response)

    eng.process(injector(eng, shell_a))
    eng.run()
    assert len(received) == 1
    assert received[0].kind is PacketKind.RESPONSE


def test_safe_reconfigure_does_not_corrupt_neighbor():
    eng = Engine()
    shell_a, shell_b = build_pair(eng)
    role_b = EchoRole()
    shell_b.attach_role(role_b)

    done = shell_a.safe_reconfigure(bitstream("new-role"))
    eng.run_until(done)
    eng.run(until=eng.now + 1 * SEC)
    assert not role_b.corrupted
    assert shell_a.fpga.configured_role == "new-role"
    # A comes back up RX-halted until the Mapping Manager releases it.
    assert all(ep.rx_halt for ep in shell_a.endpoints.values())


def test_unsafe_reconfigure_corrupts_unprotected_neighbor():
    eng = Engine(seed=2)
    shell_a, shell_b = build_pair(eng)
    role_b = EchoRole()
    shell_b.attach_role(role_b)

    done = shell_a.unsafe_reconfigure(bitstream("new-role"))
    eng.run_until(done)
    eng.run(until=eng.now + 1 * SEC)
    assert role_b.corrupted  # garbage reached the role


def test_rx_halt_shields_neighbor_from_unsafe_reconfig():
    eng = Engine(seed=2)
    shell_a, shell_b = build_pair(eng)
    role_b = EchoRole()
    shell_b.attach_role(role_b)
    # Mapping Manager has NOT released B yet.
    for endpoint in shell_b.endpoints.values():
        endpoint.rx_halt = True

    done = shell_a.unsafe_reconfigure(bitstream("new-role"))
    eng.run_until(done)
    eng.run(until=eng.now + 1 * SEC)
    assert not role_b.corrupted


def test_reconfiguration_raises_nmi_through_pcie():
    eng = Engine()
    shell_a, _shell_b = build_pair(eng)
    nmis = []
    shell_a.pcie.on_nmi = lambda: nmis.append(eng.now)
    done = shell_a.safe_reconfigure(bitstream("next"))
    eng.run_until(done)
    assert len(nmis) == 1  # driver must mask this in production


def test_neighbor_id_reports_peer_machine():
    eng = Engine()
    shell_a, shell_b = build_pair(eng)
    assert shell_a.neighbor_id(Port.EAST) == "machine-b"
    assert shell_b.neighbor_id(Port.WEST) == "machine-a"
    assert shell_a.neighbor_id(Port.NORTH) is None  # not wired


def test_neighbor_id_none_when_cable_broken():
    eng = Engine()
    shell_a, _shell_b = build_pair(eng)
    shell_a.endpoints[Port.EAST].link.break_cable()
    assert shell_a.neighbor_id(Port.EAST) is None


def test_health_snapshot_structure():
    eng = Engine()
    shell_a, shell_b = build_pair(eng)
    shell_b.attach_role(EchoRole())
    health = shell_b.health_snapshot()
    assert health["machine_id"] == "machine-b"
    assert health["fpga_state"] == "configured"
    assert health["pll_locked"] is True
    assert health["app_error"] is False
    assert "west" in health["links"]
    assert health["neighbors"]["west"] == "machine-a"
    assert len(health["dram"]) == 2


def test_seu_scrubber_repairs_upsets():
    eng = Engine()
    shell_a, _shell_b = build_pair(eng)
    shell_a.fpga.inject_seu()
    shell_a.fpga.inject_seu()
    eng.run(until=eng.now + 1 * SEC)  # scrubber period is 100 ms
    assert shell_a.fpga.seu.upsets_scrubbed == 2


def reference_scrubber(engine, fpga):
    """The free-running §3.2 scrubber: a pass every period from its
    start, repairing what is pending on a configured part."""
    while True:
        yield engine.timeout(SEU_SCRUB_PERIOD_NS)
        if fpga.state is FpgaState.CONFIGURED:
            fpga.scrub()


def apply_seu_action(fpga, action):
    if action == "upset":
        fpga.inject_seu()
    elif action == "uncorrectable":
        fpga.inject_seu(correctable=False)
    elif action == "reconfigure":
        if fpga.state not in (FpgaState.FAILED, FpgaState.RECONFIGURING):
            fpga.reconfigure(bitstream())
    elif action == "fail":
        fpga.mark_failed()
    else:
        fpga.repair()


# Quarter periods, so a quarter of the draws land on a scrub boundary.
_seu_actions = st.lists(
    st.tuples(
        st.integers(0, 120).map(lambda quarter: quarter * SEU_SCRUB_PERIOD_NS / 4),
        st.sampled_from(["upset", "upset", "uncorrectable", "reconfigure", "fail", "repair"]),
    ),
    max_size=20,
)


@settings(max_examples=100, deadline=None)
@given(actions=_seu_actions)
@example(actions=[(0.0, "reconfigure"), (12 * SEU_SCRUB_PERIOD_NS, "upset")])
@example(actions=[(0.0, "uncorrectable"), (0.0, "reconfigure")])  # a reload clears it
def test_scrubbing_on_upsets_matches_a_free_running_scrubber(actions):
    """A shell's FPGA and a shell-less twin scrubbed by the reference
    ticker take the same upsets, reconfigurations, failures and repairs
    at the same instants; their SEU counters agree at every instant.
    Each action is scheduled from time 0, so at a boundary instant it
    runs before the reference pass, and an upset there is scrubbed in
    that pass on a configured part."""
    engine = Engine()
    fpga = Fpga(engine, "scrubbed")
    Shell(engine, fpga, (0, 0), "machine-a")
    twin = Fpga(engine, "reference")

    def act(at, action):
        yield engine.timeout(at)
        apply_seu_action(fpga, action)
        apply_seu_action(twin, action)

    for at, action in actions:
        engine.process(act(at, action))
    engine.process(reference_scrubber(engine, twin), daemon=True)
    horizon = 32 * SEU_SCRUB_PERIOD_NS + FULL_RECONFIG_NS
    instants = {at for at, _ in actions} | {at + FULL_RECONFIG_NS for at, _ in actions}
    instants |= {k * SEU_SCRUB_PERIOD_NS for k in range(1, 43)}
    for instant in sorted(t for t in instants if t <= horizon):
        engine.run(until=instant)
        assert fpga.seu == twin.seu, f"at {instant:.0f} ns after {actions}"


def test_an_fpga_with_no_pending_upset_schedules_no_scrub():
    engine = Engine()
    fpga = Fpga(engine, "f0")
    Shell(engine, fpga, (0, 0), "machine-a")
    engine.run_until(fpga.reconfigure(bitstream()))
    engine.run(until=engine.now + 1 * SEC)
    assert engine.queue_length == 0  # idle: nothing ticks
    fpga.inject_seu()
    assert engine.queue_length == 1  # one pass, at the next boundary
    engine.run(until=engine.now + SEU_SCRUB_PERIOD_NS)
    assert fpga.seu.upsets_scrubbed == 1
    assert engine.queue_length == 0


def test_send_from_role_with_no_route_is_dropped_not_fatal():
    eng = Engine()
    shell_a, _shell_b = build_pair(eng)
    role = ForwardRole(next_hop=(9, 9))  # unroutable
    shell_a.attach_role(role)

    def injector(eng, shell_a):
        request = Packet(
            kind=PacketKind.REQUEST, src=(0, 0), dst=(0, 0), size_bytes=64
        )
        yield shell_a.buffers.fill_input(0, request)

    eng.process(injector(eng, shell_a))
    eng.run()
    assert shell_a.router.dropped_no_route == 1
