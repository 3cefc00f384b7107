"""Tests for SL3 links: bandwidth, ECC tax, halt protocol, errors."""

import dataclasses

import pytest

from repro.hardware.constants import SL3_HOP_LATENCY_NS, SL3_PEAK_GBPS, SL3_RETRAIN_NS
from repro.shell import PassthroughRole, Port, Role, ShellConfig
from repro.shell.messages import Packet, PacketKind
from repro.shell.sl3 import LinkStats, Sl3Config, Sl3Endpoint, Sl3Link
from repro.sim import Engine, dual_run, state_digest
from tests.test_shell_integration import bitstream, build_pair

SATURATED_PACKETS = 80
# Pinned figures of the exact-link scenarios below.  Link time for a
# packet is size / 2 ns (16 Gb/s after the ECC tax) plus the 400 ns hop.
_NO_LINK_STATS = dataclasses.asdict(LinkStats())
# After the first four deliveries the role's 5 us per packet sets the
# pace; the sender's 69th put is the first that has to wait for room.
SATURATED_STATE = {
    "delivered": [(528.0, 0), (1120.0, 1), (1776.0, 2), (2496.0, 3)]
    + [(5528.0 + 5000.0 * k, 4 + k) for k in range(76)],
    "unblocked": [
        (68, 528.0),
        (69, 1120.0),
        (70, 1776.0),
        (71, 2496.0),
        (72, 3280.0),
        (73, 4128.0),
    ]
    + [(74 + k, 5528.0 + 5000.0 * k) for k in range(6)],
    "sender": {**_NO_LINK_STATS, "packets_sent": 80},
    "receiver": {
        **_NO_LINK_STATS,
        "packets_delivered": 80,
        "bytes_delivered": 50432,
        "xoff_events": 74,
    },
    "handled": 80,
}
# 1 KB packets back to back (912 ns each); TX_HALT follows the 66th.
TX_HALT_STATE = {
    "backlog": (4, 64),
    "delivered": [(912.0 * (k + 1), k) for k in range(66)],
    "halted_at": [60701.0],
    "sender": {**_NO_LINK_STATS, "packets_sent": 66},
    "receiver": {**_NO_LINK_STATS, "packets_delivered": 66, "bytes_delivered": 67584},
    "handled": 66,
}
GARBAGE_STATE = {
    "delivered": [
        (at, None)
        for at in (
            1479.5,
            51027.5,
            101924.5,
            151257.5,
            202427.0,
            250512.0,
            300694.0,
            352118.0,
            402136.5,
            451276.0,
        )
    ],
    "receiver": {
        **_NO_LINK_STATS,
        "packets_delivered": 10,
        "bytes_delivered": 21705,
        "garbage_received": 10,
    },
    "corrupted": True,
}


def make_link(eng, config=None, name="test"):
    config = config or Sl3Config()
    a = Sl3Endpoint(eng, "a", config)
    b = Sl3Endpoint(eng, "b", config)
    link = Sl3Link(eng, a, b, config=config, name=name)
    # Tests default to an operational link (halts released).
    a.rx_halt = False
    b.rx_halt = False
    return a, b, link


def request(size=1024, src=(0, 0), dst=(1, 0)):
    return Packet(kind=PacketKind.REQUEST, src=src, dst=dst, size_bytes=size)


def collect_deliveries(endpoint):
    delivered = []
    endpoint.deliver = lambda packet: delivered.append(packet)
    return delivered


def test_packet_flit_count():
    assert request(size=1).flits == 1
    assert request(size=32).flits == 1
    assert request(size=33).flits == 2
    assert request(size=64 * 1024).flits == 2048


def test_packet_rejects_negative_size():
    with pytest.raises(ValueError):
        request(size=-1)


def test_response_to_swaps_endpoints_and_keeps_trace():
    req = request()
    req.slot_id = 7
    resp = req.response_to(size_bytes=16, payload=1.5)
    assert resp.kind is PacketKind.RESPONSE
    assert resp.src == req.dst and resp.dst == req.src
    assert resp.trace_id == req.trace_id
    assert resp.slot_id == 7


def test_delivery_latency_matches_serialization_plus_hop():
    eng = Engine()
    a, b, _link = make_link(eng)
    delivered = collect_deliveries(b)
    pkt = request(size=2000)

    def sender(eng, a, pkt):
        yield a.send(pkt)

    eng.process(sender(eng, a, pkt))
    eng.run()
    assert len(delivered) == 1
    # 2000 B at 16 Gb/s effective = 1000 ns, plus the 400 ns hop.
    expected = 2000 / 2.0 + SL3_HOP_LATENCY_NS
    assert eng.now == pytest.approx(expected)


def test_ecc_tax_reduces_effective_bandwidth():
    with_ecc = Sl3Config(ecc_enabled=True)
    without = Sl3Config(ecc_enabled=False)
    assert with_ecc.effective_gbps == pytest.approx(SL3_PEAK_GBPS * 0.8)
    assert without.effective_gbps == pytest.approx(SL3_PEAK_GBPS)


def test_rx_halt_discards_traffic():
    eng = Engine()
    a, b, _link = make_link(eng)
    b.rx_halt = True  # freshly configured FPGA
    delivered = collect_deliveries(b)

    def sender(eng, a):
        yield a.send(request())

    eng.process(sender(eng, a))
    eng.run()
    assert delivered == []
    assert b.stats.dropped_rx_halt == 1


def test_tx_halt_makes_peer_ignore_then_retrain_restores():
    eng = Engine()
    a, b, link = make_link(eng)
    delivered = collect_deliveries(b)

    def scenario(eng, a, b, link):
        yield a.assert_tx_halt()
        yield eng.timeout(10_000.0)
        # Peer now ignores us: this packet is dropped.
        yield a.send(request())
        yield eng.timeout(10_000.0)
        assert delivered == []
        assert b.stats.dropped_ignore_peer == 1
        # Retrain the link (reconfiguration completed).
        link.retrain(a)
        yield eng.timeout(SL3_RETRAIN_NS + 1_000.0)
        yield a.send(request())

    eng.process(scenario(eng, a, b, link))
    eng.run()
    assert len(delivered) == 1


def test_double_bit_errors_drop_packets_no_retransmission():
    eng = Engine(seed=3)
    config = Sl3Config(flit_double_error_rate=1.0)
    a, b, _link = make_link(eng, config)
    delivered = collect_deliveries(b)

    def sender(eng, a):
        for _ in range(5):
            yield a.send(request())

    eng.process(sender(eng, a))
    eng.run()
    assert delivered == []
    assert b.stats.dropped_crc == 5


def test_single_bit_errors_corrected_and_counted():
    eng = Engine(seed=3)
    config = Sl3Config(flit_single_error_rate=0.5)
    a, b, _link = make_link(eng, config)
    delivered = collect_deliveries(b)

    def sender(eng, a):
        for _ in range(10):
            yield a.send(request(size=3200))  # 100 flits each

    eng.process(sender(eng, a))
    eng.run()
    assert len(delivered) == 10  # singles never drop packets
    assert b.stats.corrected_flits > 100  # ~50/packet expected


def test_no_ecc_turns_bit_errors_into_garbage():
    eng = Engine(seed=3)
    config = Sl3Config(ecc_enabled=False, flit_single_error_rate=0.9)
    a, b, _link = make_link(eng, config)
    delivered = collect_deliveries(b)

    def sender(eng, a):
        yield a.send(request(size=3200))

    eng.process(sender(eng, a))
    eng.run()
    assert len(delivered) == 1
    assert delivered[0].kind is PacketKind.GARBAGE


def test_broken_cable_drops_everything():
    eng = Engine()
    a, b, link = make_link(eng)
    delivered = collect_deliveries(b)
    link.break_cable()

    def sender(eng, a):
        yield a.send(request())

    eng.process(sender(eng, a))
    eng.run()
    assert delivered == []
    assert a.stats.dropped_link_down == 1
    link.repair_cable()

    def sender2(eng, a):
        yield a.send(request())

    eng.process(sender2(eng, a))
    eng.run()
    assert len(delivered) == 1


def test_garbage_emission_during_unprotected_reconfig():
    eng = Engine(seed=1)
    a, b, link = make_link(eng)
    delivered = collect_deliveries(b)
    link.start_garbage(a, duration_ns=500_000.0)
    eng.run()
    garbage = [p for p in delivered if p.kind is PacketKind.GARBAGE]
    assert len(garbage) >= 5
    assert b.stats.garbage_received == len(garbage)


def test_rx_halt_protects_against_garbage():
    eng = Engine(seed=1)
    a, b, link = make_link(eng)
    b.rx_halt = True
    delivered = collect_deliveries(b)
    link.start_garbage(a, duration_ns=500_000.0)
    eng.run()
    assert delivered == []
    assert b.stats.dropped_rx_halt >= 5


def test_xoff_backpressure_counts_and_preserves_packets():
    eng = Engine()
    config = Sl3Config(rx_fifo_packets=2)
    a, b, _link = make_link(eng, config)
    delivered = []

    # Slow consumer: replace the immediate deliver with buffering reads.
    def slow_deliver(packet):
        delivered.append(packet)
        return eng.timeout(100_000.0)  # delivery loop stalls 100 us each

    b.deliver = slow_deliver

    def sender(eng, a):
        for _ in range(10):
            yield a.send(request(size=1024))

    eng.process(sender(eng, a))
    eng.run()
    assert len(delivered) == 10  # flow control is lossless
    assert b.stats.xoff_events > 0


def test_peer_property_requires_link():
    eng = Engine()
    endpoint = Sl3Endpoint(eng, "solo", Sl3Config())
    with pytest.raises(RuntimeError):
        _ = endpoint.peer


# --- exact link behaviour through two shells --------------------------------------


def _data_packet(index, size_bytes=1024):
    return Packet(
        kind=PacketKind.REQUEST, src=(0, 0), dst=(1, 0), size_bytes=size_bytes, payload=index
    )


def _record_deliveries(engine, endpoint, start):
    """Log ``(instant since start, payload)`` for each packet the link delivers."""
    delivered = []
    deliver = endpoint.deliver

    def record(packet):
        delivered.append((engine.now - start, packet.payload))
        return deliver(packet)

    endpoint.deliver = record
    return delivered


class SlowSink(Role):
    """Consumes each packet after 5 us of work."""

    name = "slow-sink"

    def handle(self, packet):
        yield self.shell.engine.timeout(5_000.0)


def saturated_link(engine):
    """Shell A floods shell B over one link whose receive FIFO holds two
    packets.  B's router queues hold two packets and its role takes 5 us
    per packet, so Xoff holds the wire, the transmit queue fills and A's
    ``Router.submit`` puts block."""
    config = ShellConfig(sl3=Sl3Config(rx_fifo_packets=2), router_queue_capacity=2)
    shell_a, shell_b = build_pair(engine, config)
    shell_b.attach_role(SlowSink())
    east, west = shell_a.endpoints[Port.EAST], shell_b.endpoints[Port.WEST]
    start = engine.now
    delivered = _record_deliveries(engine, west, start)
    unblocked = []

    def sender():
        for index in range(SATURATED_PACKETS):
            yield shell_a.router.submit(
                _data_packet(index, size_bytes=256 + 128 * (index % 7)), Port.PCIE
            )
            unblocked.append((index, engine.now - start))

    engine.process(sender())
    engine.run()
    return {
        "delivered": delivered,
        "unblocked": [entry for entry in unblocked if entry[1] > 0.0],
        "sender": dataclasses.asdict(east.stats),
        "receiver": dataclasses.asdict(west.stats),
        "handled": shell_b.role.packets_handled,
    }


def test_saturated_link_is_exact():
    state = saturated_link(Engine())
    assert state == SATURATED_STATE
    # Flow control is lossless: every packet reaches the role in order.
    assert [payload for _at, payload in state["delivered"]] == list(range(SATURATED_PACKETS))


def test_saturated_link_is_tie_break_stable():
    report = dual_run(saturated_link)
    assert report.baseline_state == state_digest(SATURATED_STATE)
    assert report.state_match


def tx_halt_behind_a_backlog(engine):
    """A queues 70 packets for B: one goes on the wire, 64 fill the
    transmit queue, one waits for room and four stay in the router
    queue.  Then A starts the safe-reconfiguration protocol."""
    shell_a, shell_b = build_pair(engine)
    shell_b.attach_role(PassthroughRole())
    east, west = shell_a.endpoints[Port.EAST], shell_b.endpoints[Port.WEST]
    start = engine.now
    delivered = _record_deliveries(engine, west, start)
    halted_at = []

    def scenario():
        for index in range(70):
            shell_a.router.submit(_data_packet(index), Port.PCIE)
        yield engine.timeout(1.0)
        backlog = (len(shell_a.router.output_queues[Port.EAST]), len(east.tx_queue))
        reconfigured = shell_a.safe_reconfigure(bitstream("next"))
        while not west.ignore_peer:
            yield engine.timeout(100.0)
        halted_at.append(engine.now - start)
        yield reconfigured
        return backlog

    backlog = engine.run_until(engine.process(scenario()))
    engine.run()
    return {
        "backlog": backlog,
        "delivered": delivered,
        "halted_at": halted_at,
        "sender": dataclasses.asdict(east.stats),
        "receiver": dataclasses.asdict(west.stats),
        "handled": shell_b.role.packets_handled,
    }


def test_tx_halt_sends_the_transmit_queue_first_and_drops_the_router_queue():
    state = tx_halt_behind_a_backlog(Engine())
    assert state == TX_HALT_STATE
    assert state["backlog"] == (4, 64)
    # The 66 packets that had left the router queue arrive ahead of
    # TX_HALT; the four still in it are dropped before the link.
    assert [payload for _at, payload in state["delivered"]] == list(range(66))
    assert state["sender"]["packets_sent"] == 66
    assert state["receiver"]["dropped_ignore_peer"] == 0
    assert state["delivered"][-1][0] < state["halted_at"][0]


def test_tx_halt_is_tie_break_stable():
    report = dual_run(tx_halt_behind_a_backlog)
    assert report.baseline_state == state_digest(TX_HALT_STATE)
    assert report.state_match


def garbage_into_an_unprotected_role(engine):
    """A reconfigures without the protocol; B has released RX Halt."""
    shell_a, shell_b = build_pair(engine)
    shell_b.attach_role(PassthroughRole())
    east, west = shell_a.endpoints[Port.EAST], shell_b.endpoints[Port.WEST]
    start = engine.now
    delivered = _record_deliveries(engine, west, start)
    east.link.start_garbage(east, duration_ns=500_000.0)
    engine.run()
    return {
        "delivered": delivered,
        "receiver": dataclasses.asdict(west.stats),
        "corrupted": shell_b.role.corrupted,
    }


def test_garbage_reaches_an_unprotected_role_exactly():
    state = garbage_into_an_unprotected_role(Engine(seed=1))
    assert state == GARBAGE_STATE
    assert state["corrupted"]
    assert state["receiver"]["garbage_received"] == 10


def test_garbage_is_tie_break_stable():
    # dual_run seeds its engines with 0, so the pin above (seed 1) is not
    # its baseline: a plain seed-0 run is.
    report = dual_run(garbage_into_an_unprotected_role)
    assert report.baseline_state == state_digest(garbage_into_an_unprotected_role(Engine()))
    assert report.state_match
