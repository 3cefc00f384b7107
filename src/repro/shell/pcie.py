"""PCIe core with slot-based DMA (§3.1).

Low latency is achieved by avoiding system calls: one input and one
output buffer live in non-paged user-level memory, divided into 64
slots of 64 KB.  Each CPU thread owns one or more slots exclusively —
that is the whole thread-safety story.  The FPGA monitors the input
full bits and *fairly* selects slots by taking periodic snapshots of
the full bits and DMA'ing every full slot before snapshotting again.
Results DMA into the output buffer, set the output full bit, and raise
an interrupt to wake the consumer thread: the output DMA hands the
response straight to the slot's waiting consumer, as one event.

A reconfiguring FPGA appears as a failed PCIe device and raises a
non-maskable interrupt that destabilizes the host unless the driver
masked it first (§3.4) — modelled via the ``on_nmi`` callback.
"""

from __future__ import annotations

import collections.abc
import dataclasses

from repro.hardware.constants import (
    PCIE_DMA_SETUP_NS,
    PCIE_GBPS,
    PCIE_SLOT_BYTES,
    PCIE_SLOT_COUNT,
)
from repro.shell.messages import Packet
from repro.shell.router import Port, Router
from repro.sim import Engine, Event
from repro.sim.units import transfer_time_ns


class SlotError(Exception):
    """Raised on slot misuse (overfill, oversized payload, bad id)."""


@dataclasses.dataclass
class Slot:
    """One DMA slot in host memory."""

    index: int
    full: bool = False
    packet: Packet | None = None
    freed: Event | None = None  # waiters for the slot to drain
    consumer: Event | None = None  # the thread waiting for a response


class HostDmaBuffers:
    """The shared user-level input/output buffers (host side).

    The device side (:class:`PcieCore`) scans ``input_slots``; host
    threads fill them and consume ``output_slots``.
    """

    def __init__(
        self,
        engine: Engine,
        slot_count: int = PCIE_SLOT_COUNT,
        slot_bytes: int = PCIE_SLOT_BYTES,
    ):
        if slot_count < 1:
            raise SlotError(f"need at least one slot, got {slot_count}")
        self.engine = engine
        self.slot_count = slot_count
        self.slot_bytes = slot_bytes
        self.input_slots = [Slot(i) for i in range(slot_count)]
        self.output_slots = [Slot(i) for i in range(slot_count)]
        self._dma_wake: Event | None = None

    # -- host-thread side ----------------------------------------------------

    def fill_input(self, slot_id: int, packet: Packet) -> Event:
        """Fill an input slot; returns an event that fires once accepted.

        A free slot is filled at once (the event is already done).  It
        blocks (event pends) while the slot is still full from the
        previous send — slots apply natural backpressure per thread.
        """
        slot = self._input_slot(slot_id)
        if packet.size_bytes > self.slot_bytes:
            raise SlotError(
                f"payload {packet.size_bytes} B exceeds slot size {self.slot_bytes} B"
            )
        done = self.engine.event(name=f"fill:{slot_id}")
        packet.slot_id = slot_id

        def do_fill(_event=None) -> Event:
            slot.full = True
            slot.packet = packet
            self._wake_dma()
            return done

        if not slot.full:
            return do_fill()._complete()
        if slot.freed is None:
            slot.freed = self.engine.event(name=f"freed:{slot_id}")
        slot.freed.add_callback(lambda event: do_fill(event).succeed())
        return done

    def consume_output(self, slot_id: int) -> Event:
        """Wait for the output slot's response; returns the packet, clears it.

        The slot has at most one waiting consumer; the output DMA hands
        it the response directly (see :meth:`deliver_output`).
        """
        slot = self._output_slot(slot_id)
        if slot.consumer is not None:
            raise SlotError(f"output slot {slot_id} already has a waiting consumer")
        done = self.engine.event(name=f"consume:{slot_id}")
        if slot.full:
            done.succeed(self.clear(slot))
        else:
            slot.consumer = done
        return done

    def withdraw(self, slot_id: int, consumer: Event) -> bool:
        """Take back ``consumer`` if it is still waiting; True if it was.

        A response that arrives afterwards stays in the slot for the
        next consumer (the quarantine drain of a timed-out lease).
        """
        slot = self._output_slot(slot_id)
        if slot.consumer is not consumer:
            return False  # already handed its response
        slot.consumer = None
        return True

    def deliver_output(self, slot: Slot, packet: Packet) -> None:
        """The output DMA into an empty slot finished: hand the packet
        to the waiting consumer, or leave the slot full for the next."""
        consumer = slot.consumer
        if consumer is None:
            slot.full = True
            slot.packet = packet
        else:
            slot.consumer = None
            consumer.succeed(packet)

    def clear(self, slot: Slot) -> Packet | None:
        """Clear ``slot``'s full bit, wake a thread waiting to refill
        it, and return the packet it held."""
        packet = slot.packet
        slot.full = False
        slot.packet = None
        if slot.freed is not None:
            freed, slot.freed = slot.freed, None
            freed.succeed()
        return packet

    # -- device side helpers -----------------------------------------------------

    def snapshot_full_input(self) -> list[int]:
        """The §3.1 fairness primitive: indices of currently full slots."""
        return [slot.index for slot in self.input_slots if slot.full]

    def wait_any_input(self) -> Event:
        if self._dma_wake is None or self._dma_wake.triggered:
            self._dma_wake = self.engine.event(name="dma-wake")
        return self._dma_wake

    def _wake_dma(self) -> None:
        if self._dma_wake is not None and not self._dma_wake.triggered:
            self._dma_wake.succeed()

    def _input_slot(self, slot_id: int) -> Slot:
        if not 0 <= slot_id < self.slot_count:
            raise SlotError(f"bad slot id {slot_id}")
        return self.input_slots[slot_id]

    def _output_slot(self, slot_id: int) -> Slot:
        if not 0 <= slot_id < self.slot_count:
            raise SlotError(f"bad slot id {slot_id}")
        return self.output_slots[slot_id]


@dataclasses.dataclass
class PcieStats:
    requests_dma_in: int = 0
    responses_dma_out: int = 0
    snapshots: int = 0
    nmi_raised: int = 0
    interrupts_raised: int = 0


class PcieCore:
    """Device-side PCIe + DMA engine living in the shell."""

    def __init__(
        self,
        engine: Engine,
        router: Router,
        buffers: HostDmaBuffers,
        gbps: float = PCIE_GBPS,
        setup_ns: float = PCIE_DMA_SETUP_NS,
    ):
        self.engine = engine
        self.router = router
        self.buffers = buffers
        self.gbps = gbps
        self.setup_ns = setup_ns
        self.stats = PcieStats()
        self.device_up = True
        self.on_nmi: collections.abc.Callable[[], None] | None = None
        self._device_up_event: Event | None = None
        # Expendable: both DMA loops idle forever once traffic stops.
        engine.process(self._input_scan_loop(), name="pcie.scan", expendable=True)
        engine.process(self._output_loop(), name="pcie.out", expendable=True)

    # -- reconfiguration visibility ----------------------------------------------

    def device_down(self) -> None:
        """The FPGA dropped off the bus (reconfiguration started)."""
        self.device_up = False
        self.stats.nmi_raised += 1
        if self.on_nmi is not None:
            self.on_nmi()

    def device_restored(self) -> None:
        self.device_up = True
        if self._device_up_event is not None and not self._device_up_event.triggered:
            self._device_up_event.succeed()

    def _wait_device_up(self) -> Event:
        if self._device_up_event is None or self._device_up_event.triggered:
            self._device_up_event = self.engine.event(name="pcie-up")
        return self._device_up_event

    # -- DMA processes -----------------------------------------------------------------

    def dma_time_ns(self, size_bytes: int) -> float:
        return self.setup_ns + transfer_time_ns(size_bytes, self.gbps)

    def _input_scan_loop(self) -> collections.abc.Generator:
        buffers = self.buffers
        while True:
            if not self.device_up:
                yield self._wait_device_up()
                continue
            snapshot = buffers.snapshot_full_input()
            self.stats.snapshots += 1
            if not snapshot:
                yield buffers.wait_any_input()
                continue
            # Fairness: DMA every slot in this snapshot before rescanning.
            for index in snapshot:
                slot = buffers.input_slots[index]
                packet = slot.packet
                if packet is None:
                    continue
                yield self.engine.timeout(self.dma_time_ns(packet.size_bytes))
                # Transfer complete: clear the full bit so the thread
                # can refill while the packet traverses the fabric.
                buffers.clear(slot)
                self.stats.requests_dma_in += 1
                packet.injected_at_ns = (
                    packet.injected_at_ns or self.engine.now
                )
                put = self.router.submit(packet, Port.PCIE)
                if put is not None:
                    yield put

    def _output_loop(self) -> collections.abc.Generator:
        queue = self.router.output_queues[Port.PCIE]
        while True:
            packet: Packet = yield queue.get()
            if not self.device_up:
                yield self._wait_device_up()
            if packet.slot_id is None:
                continue  # nowhere to deliver (e.g. probe responses)
            slot = self.buffers.output_slots[packet.slot_id]
            while slot.full:
                # Output slot still occupied: wait for consumer drain.
                if slot.freed is None:
                    slot.freed = self.engine.event(name=f"ofreed:{slot.index}")
                yield slot.freed
            yield self.engine.timeout(self.dma_time_ns(packet.size_bytes))
            self.stats.responses_dma_out += 1
            self.stats.interrupts_raised += 1  # wake the consumer thread
            self.buffers.deliver_output(slot, packet)
