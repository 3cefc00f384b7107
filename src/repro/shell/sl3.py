"""SerialLite III inter-FPGA links (§2.2, §3.2, §3.4).

Each of the four shell link cores talks to one torus neighbour over a
pair of 10 Gb/s signals (20 Gb/s peak bidirectional).  The protocol
offers FIFO semantics, Xon/Xoff flow control and per-flit SECDED ECC —
which costs 20 % of peak bandwidth.  Flits with double-bit errors (and
rare multi-bit escapes caught by the end-of-packet CRC) cause the whole
packet to be dropped with **no retransmission**: the host times out and
escalates to the failure-handling protocol.

The reconfiguration-safety protocol (§3.4) also lives at this layer:

* **TX Halt** — an FPGA about to reconfigure tells each neighbour to
  ignore all further traffic from it until the link retrains;
* **RX Halt** — a freshly configured FPGA discards everything it
  receives until the Mapping Manager releases it;
* a neighbour that reconfigures *without* the protocol (crash, surprise
  reboot) emits garbage packets that will corrupt an unprotected role.
"""

from __future__ import annotations

import collections.abc
import dataclasses

from repro.hardware.constants import (
    SL3_ECC_BANDWIDTH_TAX,
    SL3_FLIT_BYTES,
    SL3_HOP_LATENCY_NS,
    SL3_PEAK_GBPS,
)
from repro.shell.messages import Packet, PacketKind
from repro.sim import Engine, Event, Fifo
from repro.sim.units import transfer_time_ns

# Interval between garbage bursts an unprotected, reconfiguring FPGA
# emits onto a link.
_GARBAGE_PERIOD_NS = 50_000.0


@dataclasses.dataclass(frozen=True)
class Sl3Config:
    """Link operating parameters."""

    peak_gbps: float = SL3_PEAK_GBPS
    ecc_enabled: bool = True
    hop_latency_ns: float = SL3_HOP_LATENCY_NS
    rx_fifo_packets: int = 16  # receive buffering before Xoff asserts
    flit_single_error_rate: float = 0.0  # per-flit single-bit-error prob
    flit_double_error_rate: float = 0.0  # per-flit double-bit-error prob
    retrain_ns: float = 2_000_000.0  # link retrain after reconfiguration

    @property
    def effective_gbps(self) -> float:
        """Usable bandwidth after the ECC tax (§3.2: −20 %)."""
        if self.ecc_enabled:
            return self.peak_gbps * (1.0 - SL3_ECC_BANDWIDTH_TAX)
        return self.peak_gbps


@dataclasses.dataclass
class LinkStats:
    """Per-endpoint receive/transmit counters for the health vector."""

    packets_sent: int = 0
    packets_delivered: int = 0
    bytes_delivered: int = 0
    dropped_crc: int = 0  # double-bit/CRC failures (no retransmission)
    dropped_rx_halt: int = 0
    dropped_ignore_peer: int = 0
    dropped_link_down: int = 0
    garbage_received: int = 0  # garbage that REACHED the role (corruption!)
    corrected_flits: int = 0
    xoff_events: int = 0


class Sl3Endpoint:
    """One side of a link: TX queue, RX state, halt flags."""

    def __init__(self, engine: Engine, name: str, config: Sl3Config):
        self.engine = engine
        self.name = name
        self.config = config
        self.tx_queue = Fifo(engine, capacity=64, name=f"sl3tx:{name}")
        self.rx_fifo = Fifo(engine, capacity=config.rx_fifo_packets, name=f"sl3rx:{name}")
        self.stats = LinkStats()
        self.rx_halt = True  # §3.4: every FPGA comes up with RX Halt enabled
        self.ignore_peer = False  # set by the peer's TX Halt
        self.locked = True  # SERDES lock (power-on check in the FDR)
        # Wired by the shell: invoked with each delivered packet.
        self.deliver: collections.abc.Callable[[Packet], object] | None = None
        self.link: "Sl3Link | None" = None
        # The direction this endpoint sends on; the link connects it.
        self.transmitter = Sl3Transmitter(self)

    @property
    def peer(self) -> "Sl3Endpoint":
        if self.link is None:
            raise RuntimeError(f"endpoint {self.name} is not attached to a link")
        return self.link.b if self.link.a is self else self.link.a

    def send(self, packet: Packet):
        """Enqueue for transmission; returns the (possibly blocking) put."""
        self.stats.packets_sent += 1
        return self.enqueue(packet)

    def enqueue(self, packet: Packet):
        """Put ``packet`` on the transmit queue and start the wire if it
        is idle; returns the put, which blocks while the queue is full."""
        put = self.tx_queue.put(packet)
        self.transmitter.wire_next()
        return put

    def assert_tx_halt(self):
        """§3.4: tell the peer to ignore us until the link retrains."""
        halt = Packet(
            kind=PacketKind.TX_HALT,
            src=(-1, -1),
            dst=(-1, -1),
            size_bytes=SL3_FLIT_BYTES,
        )
        return self.enqueue(halt)

    def release_rx_halt(self) -> None:
        """Mapping Manager release after all pipeline FPGAs configured."""
        self.rx_halt = False

    def __repr__(self) -> str:
        return f"<Sl3Endpoint {self.name} rx_halt={self.rx_halt}>"


class Sl3Transmitter:
    """One direction of a link, from ``src`` to its peer, as callbacks.

    No process waits on a link queue.  Three stages move a packet:

    * **feed** — the router calls :meth:`feed` after each put into the
      output queue of ``src``'s port (``source``).  It moves packets on
      to the transmit queue through :meth:`Sl3Endpoint.send`, or drops
      them while ``halted()`` (the shell asserted TX Halt).  While the
      transmit queue is full it holds one packet until there is room.
    * **wire** — :meth:`wire_next` takes the next packet off the
      transmit queue and arms one timeout for its serialization plus
      the hop.  On arrival the packet faces the cable, the peer's halt
      state and channel errors, then enters the peer's receive FIFO.  A
      full FIFO is Xoff: the wire waits until delivery makes room.
    * **delivery** — drains the receive FIFO into the peer's
      ``deliver`` hook (its router) and stalls while the put that hook
      returned is pending.

    A hop with room in every queue costs one engine event, the wire
    timeout.  A stall ends on the dispatch of the put that blocked it.
    """

    __slots__ = ("src", "link", "dst", "source", "halted", "_held", "_busy", "_stalled")

    def __init__(self, src: Sl3Endpoint):
        self.src = src
        self.link: Sl3Link | None = None
        self.dst: Sl3Endpoint | None = None
        self.source: Fifo | None = None  # set by Router.attach_transmitter
        self.halted: collections.abc.Callable[[], bool] | None = None  # set by the shell
        self._held = None  # a send waiting for transmit-queue room
        self._busy = False  # a packet is on the wire or held by Xoff
        self._stalled = False  # delivery waits on the router's put

    def connect(self, link: Sl3Link, dst: Sl3Endpoint) -> None:
        self.link = link
        self.dst = dst
        self.wire_next()

    def feed(self, room: Event | None = None) -> None:
        """Move router-queue packets onto the transmit queue.

        ``room`` is the held send, once the wire has made room for it.
        """
        if self._held is not room:
            return  # still waiting for room
        self._held = None
        source = self.source
        while source.items:
            packet = source.try_get()
            if self.halted():
                continue  # we promised neighbours silence
            put = self.src.send(packet)
            if not put._dispatched:
                self._held = put
                put.add_callback(self.feed)
                return

    def wire_next(self) -> None:
        """Serialize the next queued packet unless the wire is busy."""
        if self._busy or self.link is None:
            return
        packet = self.src.tx_queue.try_get()
        if packet is None:
            return
        self._busy = True
        config = self.link.config
        serialization = transfer_time_ns(packet.size_bytes, config.effective_gbps)
        self.link.engine.timeout(serialization + config.hop_latency_ns, packet).add_callback(
            self._arrive
        )

    def _wire_free(self, _event=None) -> None:
        self._busy = False
        self.wire_next()

    def _arrive(self, event: Event) -> None:
        packet: Packet = event._value
        link, dst = self.link, self.dst
        if link.broken:
            self.src.stats.dropped_link_down += 1
        elif packet.kind is PacketKind.TX_HALT:
            # Link-level control: processed even under RX halt.
            dst.ignore_peer = True
        elif dst.ignore_peer:
            dst.stats.dropped_ignore_peer += 1
        elif dst.rx_halt:
            dst.stats.dropped_rx_halt += 1
        else:
            survived, corrected = link._apply_channel_errors(packet)
            dst.stats.corrected_flits += corrected
            if not survived:
                dst.stats.dropped_crc += 1
            elif dst.rx_fifo.is_full:
                dst.stats.xoff_events += 1
                # Xoff: the wire holds the packet until delivery makes room.
                dst.rx_fifo.put(packet).add_callback(self._wire_free)
                return
            else:
                dst.rx_fifo.try_put(packet)
                # Arm the next packet's wire timeout before delivering
                # this one: it takes its place among same-instant events
                # ahead of anything the delivery schedules.
                self._wire_free()
                if not self._stalled:
                    self._drain()
                return
        self._wire_free()

    def _drain(self, _event=None) -> None:
        """Hand received packets to the peer until its router pushes back."""
        self._stalled = False
        endpoint = self.dst
        fifo = endpoint.rx_fifo
        stats = endpoint.stats
        while fifo.items:
            packet: Packet = fifo.try_get()
            packet.hops += 1
            stats.packets_delivered += 1
            stats.bytes_delivered += packet.size_bytes
            if packet.kind is PacketKind.GARBAGE:
                stats.garbage_received += 1
            if endpoint.deliver is None:
                continue
            result = endpoint.deliver(packet)
            if result is not None and not result._dispatched:
                self._stalled = True  # backpressure from the router
                result.add_callback(self._drain)
                return


class Sl3Link:
    """A full-duplex link between two endpoints.

    Each direction is one :class:`Sl3Transmitter`, owned by the sending
    endpoint: a packet's wire time is a timeout whose callback lands it
    in the far receive FIFO (blocking there is exactly Xoff) and hands
    it on to the far shell.
    """

    def __init__(
        self,
        engine: Engine,
        a: Sl3Endpoint,
        b: Sl3Endpoint,
        config: Sl3Config | None = None,
        name: str = "link",
    ):
        self.engine = engine
        self.name = name
        self.config = config or a.config
        self.a = a
        self.b = b
        a.link = self
        b.link = self
        self.broken = False  # cable failure
        self._rng = engine.rng.stream(f"sl3:{name}")
        a.transmitter.connect(self, b)
        b.transmitter.connect(self, a)

    # -- error channel -----------------------------------------------------

    def _apply_channel_errors(self, packet: Packet) -> tuple[bool, int]:
        """Apply per-flit ECC statistics; returns (survived, corrected)."""
        config = self.config
        p_single = config.flit_single_error_rate
        p_double = config.flit_double_error_rate
        if p_single == 0.0 and p_double == 0.0:
            return True, 0
        if not config.ecc_enabled:
            # Without ECC, any bit error corrupts the packet undetected;
            # we count it as delivered garbage via the caller's stats.
            any_error = self._rng.random() < 1.0 - (
                (1.0 - p_single) * (1.0 - p_double)
            ) ** packet.flits
            if any_error:
                packet.kind = PacketKind.GARBAGE
            return True, 0
        flits = packet.flits
        # Double-bit errors: ECC detects, CRC confirms -> drop the packet.
        if p_double and self._rng.random() < 1.0 - (1.0 - p_double) ** flits:
            return False, 0
        corrected = 0
        if p_single:
            # Expected number of corrected flits, sampled cheaply.
            mean = flits * p_single
            corrected = int(mean)
            if self._rng.random() < mean - corrected:
                corrected += 1
            packet.corrected_bit_errors += corrected
        return True, corrected

    # -- reconfiguration/garbage ---------------------------------------------

    def retrain(self, requester: Sl3Endpoint) -> None:
        """Re-establish the link after ``requester``'s reconfiguration.

        The peer stops ignoring us once the retrain delay elapses.
        """
        peer = requester.peer

        def body():
            yield self.engine.timeout(self.config.retrain_ns)
            peer.ignore_peer = False
            requester.locked = True

        self.engine.process(body(), name=f"sl3.retrain.{requester.name}")

    def start_garbage(self, src: Sl3Endpoint, duration_ns: float):
        """Emit garbage from ``src`` (a reconfiguring, unprotected FPGA)."""

        def body():
            elapsed = 0.0
            while elapsed < duration_ns:
                garbage = Packet(
                    kind=PacketKind.GARBAGE,
                    src=(-9, -9),
                    dst=(-9, -9),
                    size_bytes=self._rng.randrange(SL3_FLIT_BYTES, 4096),
                )
                yield src.enqueue(garbage)
                yield self.engine.timeout(_GARBAGE_PERIOD_NS)
                elapsed += _GARBAGE_PERIOD_NS

        return self.engine.process(body(), name=f"sl3.garbage.{src.name}")

    def break_cable(self) -> None:
        """Cable assembly failure: the link goes dark both ways."""
        self.broken = True

    def repair_cable(self) -> None:
        self.broken = False

    def __repr__(self) -> str:
        return f"<Sl3Link {self.name} {self.a.name}<->{self.b.name}>"
