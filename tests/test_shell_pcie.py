"""Tests for the slot-based PCIe DMA interface (§3.1)."""

import types

import pytest

from repro.cluster import ClusterScheduler
from repro.hardware.constants import PCIE_DMA_LATENCY_TARGET_NS
from repro.host.slots import RequestTimeout, SlotLease
from repro.shell.messages import Packet, PacketKind
from repro.shell.pcie import HostDmaBuffers, PcieCore, SlotError
from repro.shell.router import Port, Router
from repro.sim import Engine
from tests.test_cluster import echo_service, small_datacenter


def setup_pcie(eng, slot_count=64):
    router = Router(eng, node_id=(0, 0))
    buffers = HostDmaBuffers(eng, slot_count=slot_count)
    pcie = PcieCore(eng, router, buffers)
    return router, buffers, pcie


def request(size=1024, dst=(0, 0)):
    return Packet(kind=PacketKind.REQUEST, src=(0, 0), dst=dst, size_bytes=size)


def test_fill_dma_delivers_to_role_queue():
    eng = Engine()
    router, buffers, pcie = setup_pcie(eng)

    def host(eng, buffers):
        yield buffers.fill_input(0, request())

    eng.process(host(eng, buffers))
    eng.run()
    assert router.queue_depth(Port.ROLE) == 1
    assert pcie.stats.requests_dma_in == 1


def test_dma_latency_under_10us_for_16kb():
    eng = Engine()
    router, buffers, pcie = setup_pcie(eng)

    def host(eng, buffers):
        yield buffers.fill_input(0, request(size=16 * 1024))

    eng.process(host(eng, buffers))
    eng.run()
    assert eng.now <= PCIE_DMA_LATENCY_TARGET_NS  # §3.1 design goal


def test_oversized_payload_rejected():
    eng = Engine()
    _router, buffers, _pcie = setup_pcie(eng)
    with pytest.raises(SlotError):
        buffers.fill_input(0, request(size=65 * 1024))


def test_bad_slot_id_rejected():
    eng = Engine()
    _router, buffers, _pcie = setup_pcie(eng)
    with pytest.raises(SlotError):
        buffers.fill_input(64, request())
    with pytest.raises(SlotError):
        buffers.consume_output(-1)


def test_refill_blocks_until_dma_drains():
    eng = Engine()
    router, buffers, pcie = setup_pcie(eng)
    fill_times = []

    def host(eng, buffers):
        yield buffers.fill_input(0, request())
        fill_times.append(eng.now)
        yield buffers.fill_input(0, request())
        fill_times.append(eng.now)

    eng.process(host(eng, buffers))
    eng.run()
    assert fill_times[0] == 0.0
    assert fill_times[1] > 0.0  # second fill waited for the DMA clear
    assert pcie.stats.requests_dma_in == 2


def test_snapshot_fairness_drains_all_full_slots():
    eng = Engine()
    router, buffers, pcie = setup_pcie(eng)

    def host(eng, buffers):
        for slot in range(8):
            yield buffers.fill_input(slot, request())

    eng.process(host(eng, buffers))
    eng.run()
    assert pcie.stats.requests_dma_in == 8
    assert router.queue_depth(Port.ROLE) == 8
    # All 8 fit in at most a few snapshots (they were filled together).
    assert pcie.stats.snapshots < 8 + 3


def test_output_slot_roundtrip_with_interrupt():
    eng = Engine()
    router, buffers, pcie = setup_pcie(eng)
    results = []

    def consumer(eng, buffers):
        packet = yield buffers.consume_output(3)
        results.append((eng.now, packet.payload))

    def responder(eng, router):
        yield eng.timeout(500.0)
        response = Packet(
            kind=PacketKind.RESPONSE,
            src=(1, 0),
            dst=(0, 0),
            size_bytes=16,
            payload=0.75,
            slot_id=3,
        )
        yield router.submit(response, Port.ROLE)

    eng.process(consumer(eng, buffers))
    eng.process(responder(eng, router))
    eng.run()
    assert len(results) == 1
    assert results[0][1] == 0.75
    assert pcie.stats.responses_dma_out == 1
    assert pcie.stats.interrupts_raised == 1


def test_device_down_raises_nmi_and_pauses_dma():
    eng = Engine()
    router, buffers, pcie = setup_pcie(eng)
    nmis = []
    pcie.on_nmi = lambda: nmis.append(eng.now)
    pcie.device_down()
    assert nmis == [0.0]

    def host(eng, buffers):
        yield buffers.fill_input(0, request())

    eng.process(host(eng, buffers))
    eng.run(until=100_000.0)
    assert pcie.stats.requests_dma_in == 0  # nothing moves while down

    pcie.device_restored()
    eng.run()
    assert pcie.stats.requests_dma_in == 1  # resumes after restore


def test_slot_count_validation():
    eng = Engine()
    with pytest.raises(SlotError):
        HostDmaBuffers(eng, slot_count=0)


# --- response hand-off: one event to the waiting consumer ----------------------------


def response(slot_id, payload="late"):
    return Packet(
        kind=PacketKind.RESPONSE, src=(1, 0), dst=(0, 0), size_bytes=16,
        payload=payload, slot_id=slot_id,
    )


def lease_on(eng, buffers):
    """A slot lease on a bare host: requests go to an unattached role."""
    host = types.SimpleNamespace(engine=eng, buffers=buffers, node_id=(0, 0))
    return SlotLease(host, 0)


def test_dropped_response_times_out_at_exactly_the_deadline():
    eng = Engine()
    router, buffers, _pcie = setup_pcie(eng)
    lease = lease_on(eng, buffers)
    outcome = []

    def thread():
        try:
            yield from lease.request(dst=(0, 0), size_bytes=64, timeout_ns=40_000.0)
        except RequestTimeout:
            outcome.append(eng.now)

    eng.process(thread())
    eng.run()
    assert outcome == [40_000.0]
    assert lease.timeouts == 1
    assert router.queue_depth(Port.ROLE) == 1  # delivered, never answered
    assert buffers.output_slots[lease.slot_id].consumer is None


def test_late_response_lands_in_the_slot_for_the_next_consumer():
    eng = Engine()
    router, buffers, pcie = setup_pcie(eng)
    lease = lease_on(eng, buffers)
    taken = []

    def thread():
        with pytest.raises(RequestTimeout):
            yield from lease.request(dst=(0, 0), size_bytes=64, timeout_ns=1_000.0)
        yield eng.timeout(10_000.0)
        taken.append((yield buffers.consume_output(lease.slot_id)).payload)

    def late_responder():
        yield eng.timeout(5_000.0)
        yield router.submit(response(lease.slot_id), Port.ROLE)

    eng.process(thread())
    eng.process(late_responder())
    eng.run(until=8_000.0)
    slot = buffers.output_slots[lease.slot_id]
    assert slot.full and slot.packet.payload == "late"  # nobody was waiting
    eng.run()
    assert taken == ["late"]
    assert not slot.full
    assert pcie.stats.responses_dma_out == 1


def test_full_output_slot_holds_the_output_dma_until_drained():
    eng = Engine()
    router, buffers, pcie = setup_pcie(eng)
    slot = buffers.output_slots[3]
    taken = []

    def responder():
        yield router.submit(response(3, payload="first"), Port.ROLE)
        yield router.submit(response(3, payload="second"), Port.ROLE)

    def consumer():
        yield eng.timeout(10_000.0)
        for _ in range(2):
            packet = yield buffers.consume_output(3)
            taken.append((eng.now, packet.payload))

    eng.process(responder())
    eng.process(consumer())
    eng.run(until=9_000.0)
    # The first response parked in the slot; the DMA holds the second.
    assert slot.full and slot.packet.payload == "first"
    assert pcie.stats.responses_dma_out == 1
    assert router.queue_depth(Port.PCIE) == 0
    eng.run()
    dma_ns = pcie.dma_time_ns(16)
    assert taken == [(10_000.0, "first"), (10_000.0 + dma_ns, "second")]
    assert pcie.stats.responses_dma_out == 2
    assert not slot.full


def test_timed_out_deployment_lease_returns_after_the_late_response():
    eng, dc = small_datacenter()
    (deployment,) = ClusterScheduler(dc).deploy(echo_service(), rings=1)
    server = deployment.injection_servers()[0]
    store = deployment._leases(server)
    results = []

    def driver():
        # The echo role answers after 2 us, long after this deadline.
        results.append((yield from deployment.submit(object(), server=server, timeout_ns=500.0)))

    eng.process(driver())
    eng.run(until=eng.now + 1_000.0)
    assert results == [None] and deployment.timeouts == 1
    assert len(store) == 47  # quarantined until its slot drains
    eng.run()
    assert len(store) == 48
    assert not any(slot.full for slot in server.buffers.output_slots)


def test_withdrawn_consumer_is_never_triggered_twice():
    eng = Engine()
    _router, buffers, _pcie = setup_pcie(eng)
    slot = buffers.output_slots[3]
    consumer = buffers.consume_output(3)
    assert buffers.withdraw(3, consumer)
    assert not buffers.withdraw(3, consumer)
    buffers.deliver_output(slot, response(3))
    assert not consumer.triggered and slot.full
    # Handed over first: a later withdraw (the guard firing at the same
    # instant) must leave the consumer alone.
    assert buffers.consume_output(3).triggered  # takes the parked response
    served = buffers.consume_output(3)
    buffers.deliver_output(slot, response(3, payload="on time"))
    assert not buffers.withdraw(3, served)
    eng.run()
    assert served.value.payload == "on time"
    buffers.consume_output(3)
    with pytest.raises(SlotError, match="already has a waiting consumer"):
        buffers.consume_output(3)


def test_response_at_the_deadline_instant_resolves_once():
    """The guard fires first (it was armed first): the consumer fails
    once, and the response that completes in the same instant is parked
    in the slot instead of triggering the consumer a second time."""
    eng = Engine()
    router, buffers, pcie = setup_pcie(eng)
    lease = lease_on(eng, buffers)
    timeout_ns = 10_000.0
    outcome = []

    def thread():
        try:
            yield from lease.request(dst=(0, 0), size_bytes=64, timeout_ns=timeout_ns)
        except RequestTimeout:
            outcome.append(eng.now)

    def responder():
        late = response(lease.slot_id)
        yield eng.timeout(timeout_ns - pcie.dma_time_ns(late.size_bytes))
        yield router.submit(late, Port.ROLE)

    eng.process(thread())
    eng.process(responder())
    eng.run()
    assert outcome == [timeout_ns]
    assert eng.now == timeout_ns
    assert buffers.output_slots[lease.slot_id].full
