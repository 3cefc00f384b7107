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
from repro.sim import Engine, Event, Fifo
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

    slot_count = PCIE_SLOT_COUNT
    slot_bytes = PCIE_SLOT_BYTES

    def __init__(self, engine: Engine):
        self.engine = engine
        self.input_slots = [Slot(i) for i in range(PCIE_SLOT_COUNT)]
        self.output_slots = [Slot(i) for i in range(PCIE_SLOT_COUNT)]
        self._full_inputs: set[int] = set()  # a snapshot reads these, not every slot
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
        packet.slot_id = slot_id
        done = Event(self.engine, f"fill:{slot_id}")
        if not slot.full:
            self._fill(slot, packet)
            return done._complete()
        if slot.freed is None:
            slot.freed = self.engine.event(name=f"freed:{slot_id}")

        def refill(_freed: Event) -> None:
            self._fill(slot, packet)
            done.succeed()

        slot.freed.add_callback(refill)
        return done

    def _fill(self, slot: Slot, packet: Packet) -> None:
        slot.full = True
        slot.packet = packet
        self._full_inputs.add(slot.index)
        self._wake_dma()

    def consume_output(self, slot_id: int) -> Event:
        """Wait for the output slot's response; returns the packet, clears it.

        The slot has at most one waiting consumer; the output DMA hands
        it the response directly (see :meth:`deliver_output`).
        """
        slot = self._output_slot(slot_id)
        if slot.consumer is not None:
            raise SlotError(f"output slot {slot_id} already has a waiting consumer")
        done = Event(self.engine, f"consume:{slot_id}")
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
        """The §3.1 fairness primitive: indices of currently full slots,
        in slot order."""
        return sorted(self._full_inputs)

    def clear_input(self, slot: Slot) -> Packet | None:
        """The input DMA moved ``slot``'s packet: :meth:`clear` it."""
        self._full_inputs.discard(slot.index)
        return self.clear(slot)

    def wait_any_input(self) -> Event:
        if self._dma_wake is None or self._dma_wake.triggered:
            self._dma_wake = Event(self.engine, "dma-wake")
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
    """Device-side PCIe + DMA engine living in the shell.

    No process runs the DMAs; each is one timeout whose callback moves
    the packet on.

    * **Input** — a fill wakes :meth:`_scan`, which snapshots the full
      bits and DMAs every slot in the snapshot, one transfer timeout at
      a time, before it snapshots again (§3.1 fairness).  A transfer's
      callback clears the slot and submits the packet to the router; a
      put the router blocks resumes the DMA when it is dispatched.
    * **Output** — :meth:`Router.submit` calls :meth:`feed` after each
      put into the PCIe port's queue (``source``), as it does for an SL3
      link.  The DMA takes one response at a time, waits while its
      output slot is still full, and its transfer's callback hands the
      response to the slot's waiting consumer.

    A device that is down pauses both directions until it is restored.
    """

    def __init__(self, engine: Engine, router: Router, buffers: HostDmaBuffers):
        self.engine = engine
        self.router = router
        self.buffers = buffers
        self.stats = PcieStats()
        self.device_up = True
        self.on_nmi: collections.abc.Callable[[], None] | None = None
        self._device_up_event: Event | None = None
        # Input: the slot indices of the current snapshot not yet served.
        self._snapshot: collections.abc.Iterator[int] = iter(())
        # Output: the router queue feeding the DMA (set by
        # Router.attach_transmitter), and the response the DMA holds.
        self.source: Fifo | None = None
        self._response: Packet | None = None
        router.attach_transmitter(Port.PCIE, self)
        self._scan()

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

    # -- DMA engine ---------------------------------------------------------------------

    def dma_time_ns(self, size_bytes: int) -> float:
        return PCIE_DMA_SETUP_NS + transfer_time_ns(size_bytes, PCIE_GBPS)

    def _scan(self, _event=None) -> None:
        """Snapshot the full input bits and start DMAing the snapshot."""
        if not self.device_up:
            self._wait_device_up().add_callback(self._scan)
            return
        buffers = self.buffers
        snapshot = buffers.snapshot_full_input()
        self.stats.snapshots += 1
        if not snapshot:
            buffers.wait_any_input().add_callback(self._scan)
            return
        self._snapshot = iter(snapshot)
        self._dma_in_next()

    def _dma_in_next(self, _event=None) -> None:
        """Start the transfer of the snapshot's next full slot, or
        snapshot again once every slot in it has been served."""
        input_slots = self.buffers.input_slots
        for index in self._snapshot:
            slot = input_slots[index]
            packet = slot.packet
            if packet is not None:
                self.engine.timeout(self.dma_time_ns(packet.size_bytes), slot).add_callback(
                    self._dma_in_done
                )
                return
        self._scan()

    def _dma_in_done(self, transfer: Event) -> None:
        # Transfer complete: clear the full bit so the thread can
        # refill while the packet traverses the fabric.
        packet = self.buffers.clear_input(transfer._value)
        self.stats.requests_dma_in += 1
        packet.injected_at_ns = packet.injected_at_ns or self.engine.now
        put = self.router.submit(packet, Port.PCIE)
        if put is not None and not put._dispatched:
            put.add_callback(self._dma_in_next)  # the router pushes back
        else:
            self._dma_in_next()

    def feed(self) -> None:
        """Take the next routed response for the output DMA unless the
        DMA already holds one."""
        if self._response is not None or not self.source.items:
            return
        self._response = self.source.try_get()
        if self.device_up:
            self._dma_out()
        else:
            self._wait_device_up().add_callback(self._dma_out)

    def _dma_out(self, _event=None) -> None:
        """Transfer the held response once its output slot is empty."""
        packet = self._response
        if packet.slot_id is None:
            self._response = None  # nowhere to deliver (e.g. probe responses)
            self.feed()
            return
        slot = self.buffers.output_slots[packet.slot_id]
        if slot.full:
            # Output slot still occupied: wait for the consumer to drain it.
            if slot.freed is None:
                slot.freed = self.engine.event(name=f"ofreed:{slot.index}")
            slot.freed.add_callback(self._dma_out)
            return
        self.engine.timeout(self.dma_time_ns(packet.size_bytes), slot).add_callback(
            self._dma_out_done
        )

    def _dma_out_done(self, transfer: Event) -> None:
        packet, self._response = self._response, None
        self.stats.responses_dma_out += 1
        self.stats.interrupts_raised += 1  # wake the consumer thread
        self.buffers.deliver_output(transfer._value, packet)
        self.feed()
