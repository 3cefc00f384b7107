"""Tests for the crossbar router and the Flight Data Recorder."""

import pytest

from repro.analysis import replay_trace
from repro.cluster import ClusterManager
from repro.fabric import Datacenter, TorusTopology
from repro.ranking.engine import ScoringEngine
from repro.ranking.models import ModelLibrary
from repro.ranking.pipeline import ranking_spec
from repro.shell.fdr import FdrEntry, FlightDataRecorder
from repro.shell.messages import Packet, PacketKind
from repro.shell.router import Port, Router, RoutingError
from repro.sim import Engine
from repro.workloads import ClosedLoop, OpenLoopInjector, TraceGenerator


def packet(kind=PacketKind.REQUEST, src=(0, 0), dst=(1, 0), size=100):
    return Packet(kind=kind, src=src, dst=dst, size_bytes=size)


def test_route_to_configured_port():
    eng = Engine()
    router = Router(eng, node_id=(0, 0))
    router.set_route((1, 0), Port.EAST)
    put = router.submit(packet(dst=(1, 0)), Port.PCIE)
    assert put is not None
    eng.run()
    assert router.queue_depth(Port.EAST) == 1


def test_local_request_goes_to_role():
    eng = Engine()
    router = Router(eng, node_id=(0, 0))
    router.submit(packet(dst=(0, 0)), Port.NORTH)
    eng.run()
    assert router.queue_depth(Port.ROLE) == 1


def test_local_response_goes_to_pcie():
    eng = Engine()
    router = Router(eng, node_id=(0, 0))
    router.submit(packet(kind=PacketKind.RESPONSE, dst=(0, 0)), Port.NORTH)
    eng.run()
    assert router.queue_depth(Port.PCIE) == 1


def test_no_route_drops_and_counts():
    eng = Engine()
    router = Router(eng, node_id=(0, 0))
    put = router.submit(packet(dst=(5, 5)), Port.PCIE)
    assert put is None
    assert router.dropped_no_route == 1


def test_route_table_validation():
    eng = Engine()
    router = Router(eng, node_id=(0, 0))
    with pytest.raises(RoutingError):
        router.set_route((1, 0), Port.ROLE)
    with pytest.raises(RoutingError):
        router.set_route((0, 0), Port.EAST)


def test_router_records_fdr_entries():
    eng = Engine()
    router = Router(eng, node_id=(0, 0))
    router.set_route((1, 0), Port.EAST)
    pkt = packet(dst=(1, 0))
    router.submit(pkt, Port.PCIE)
    entries = router.fdr.stream_out()
    assert len(entries) == 1
    assert entries[0].trace_id == pkt.trace_id
    assert entries[0].direction == "pcie->east"
    assert entries[0].kind == "request"


def test_packet_route_tracks_nodes():
    eng = Engine()
    router = Router(eng, node_id=(2, 3))
    router.set_route((1, 0), Port.WEST)
    pkt = packet(dst=(1, 0))
    router.submit(pkt, Port.NORTH)
    assert pkt.route == [(2, 3)]


# --- FDR ----------------------------------------------------------------------


def hop(i, trace=1):
    """A raw router hop, as ``Router.submit`` records it."""
    return (float(i), trace, 64, Port.NORTH, Port.ROLE, PacketKind.REQUEST, ())


def test_fdr_keeps_most_recent_512():
    fdr = FlightDataRecorder()
    for i in range(600):
        fdr.record(hop(i))
    assert len(fdr) == 512
    events = fdr.stream_out()
    assert events[0].timestamp_ns == 88.0  # oldest retained
    assert events[-1].timestamp_ns == 599.0
    assert fdr.dropped == 88
    assert fdr.total_recorded == 600


def test_fdr_trace_filter():
    fdr = FlightDataRecorder(capacity=10)
    fdr.record(hop(0, trace=7))
    fdr.record(hop(1, trace=8))
    fdr.record(hop(2, trace=7))
    assert len(fdr.entries_for_trace(7)) == 2


def test_fdr_power_on_checks():
    fdr = FlightDataRecorder()
    fdr.record_power_on("sl3_north_lock", True)
    fdr.record_power_on("pll_lock", False)
    assert fdr.power_on_checks == {"sl3_north_lock": True, "pll_lock": False}


def test_fdr_capacity_validation():
    with pytest.raises(ValueError):
        FlightDataRecorder(capacity=0)


def test_fdr_entries_match_eager_records_on_a_ring(monkeypatch):
    """Hops are kept raw and become entries when read; what a reader gets
    must equal, entry for entry, the FdrEntry an eager recorder would
    have built at the hop (with eviction and DRAM spill in play)."""
    eng = Engine(seed=31)
    manager = ClusterManager(
        Datacenter(eng, num_pods=1, topology=TorusTopology(width=2, height=8))
    )
    scoring = ScoringEngine(ModelLibrary.default(scale=0.03))
    pipeline = manager.apply(ranking_spec(scoring)).deployments[0]
    pod = manager.datacenter.pod(0)
    for server in pod.servers.values():
        fdr = FlightDataRecorder(capacity=6, spill_to_dram=True, dram_budget_entries=10)
        server.shell.fdr = server.shell.router.fdr = fdr

    eager: dict = {}  # node -> every FdrEntry, in hop order
    submit = Router.submit

    def eager_submit(router, packet, in_port):
        out_port = router._select_output(packet)
        if out_port is not None:
            lengths = tuple(
                (port.value, len(queue))
                for port, queue in router.output_queues.items()
                if len(queue)
            )
            eager.setdefault(router.node_id, []).append(
                FdrEntry(
                    timestamp_ns=router.engine.now,
                    trace_id=packet.trace_id,
                    size_bytes=packet.size_bytes,
                    direction=f"{in_port.value}->{out_port.value}",
                    kind=packet.kind.value,
                    queue_lengths=lengths,
                )
            )
        return submit(router, packet, in_port)

    monkeypatch.setattr(Router, "submit", eager_submit)
    generator = TraceGenerator(seed=5)
    pool = [generator.request() for _ in range(8)]
    threads = ClosedLoop(pod.server_at((1, 3)), threads=12)
    stats = eng.run_until(OpenLoopInjector(eng, pipeline, threads, pool).run(24))
    assert stats.completed == 24

    assert sum(1 for entries in eager.values() if len(entries) > 16) >= 6
    assert any(entry.queue_lengths for entries in eager.values() for entry in entries)
    for node, entries in eager.items():
        fdr = pod.server_at(node).shell.fdr
        assert fdr.total_recorded == len(entries)
        assert fdr.dropped == max(0, len(entries) - 16)
        assert fdr.stream_out() == entries[-6:]
        assert fdr.extended_history() == entries[-16:]
        for entry in fdr.extended_history():
            assert type(entry) is FdrEntry
        for trace_id in sorted({entry.trace_id for entry in entries}):
            assert fdr.entries_for_trace(trace_id) == [
                entry for entry in entries[-16:] if entry.trace_id == trace_id
            ]
    # Replay reads the same entries back across the pod.
    last = max(entry.trace_id for entry in eager[(0, 0)])
    replay = replay_trace(pod, last)
    expected = sorted(
        (entry.timestamp_ns, entry.direction)
        for entries in eager.values()
        for entry in entries[-16:]
        if entry.trace_id == last
    )
    assert sorted((s.timestamp_ns, s.direction) for s in replay.steps) == expected
    assert replay.hop_count >= 8
