"""The role: application logic hosted by the shell (§3.2).

Role designers "access convenient and well-defined interfaces and
capabilities in the shell (e.g., PCIe, DRAM, routing) without concern
for managing system correctness".  Concretely a role:

* receives packets the router delivers to the ROLE port via
  :meth:`handle` (a generator, so handling can take simulated time);
* sends packets with :meth:`send`, which enters the shell router;
* is subject to corruption if garbage traffic reaches it — the hazard
  the TX/RX-Halt protocol exists to prevent.

The shell moves the data: a :class:`RolePort` drains the router's ROLE
queue into the role by callback, as an SL3 link or the PCIe DMA drains
its port, so no process runs per role.
"""

from __future__ import annotations

import collections.abc
import typing

from repro.shell.messages import Packet, PacketKind
from repro.shell.router import Port
from repro.sim import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.shell.shell import Shell
    from repro.sim import Fifo


class RolePort:
    """The ROLE port's consumer: hands the role one packet at a time.

    :meth:`Router.submit` calls :meth:`feed` after each put into the ROLE
    queue (``source``).  While the role is idle the port takes the next
    packet; garbage corrupts the role (§3.4), anything else starts
    ``role.handle(packet)``.  A small trampoline drives that generator:
    it keeps sending through events that are already dispatched (a put
    with room) and suspends on a pending one until its dispatch, the
    instant a process waiting on it would resume.  When the handler
    returns, the port takes the next packet.

    The port starts on one ``start`` event at the instant it is built,
    and :meth:`close` stops it: the running handler is closed and the
    port leaves the event it waits on.
    """

    __slots__ = ("role", "source", "_handler", "_waiting_on")

    def __init__(self, shell: "Shell", role: "Role"):
        self.role: Role | None = role
        self.source: Fifo | None = None  # set by Router.attach_transmitter
        # The running handle() generator and the pending event the port
        # waits on (first the start event): the port is busy while
        # either is set.
        self._handler: collections.abc.Generator | None = None
        self._waiting_on: Event | None = None
        shell.router.attach_transmitter(Port.ROLE, self)
        start = Event(shell.engine, "start")
        start.callbacks = [self._resume]
        start.succeed()
        self._waiting_on = start

    def feed(self) -> None:
        """Hand queued packets to the role until it is busy."""
        if self._waiting_on is not None or self._handler is not None or self.role is None:
            return
        role = self.role
        source = self.source
        while source.items:
            packet: Packet = source.try_get()
            if packet.kind is PacketKind.GARBAGE:
                # Garbage that reaches the role corrupts its state (§3.4).
                role.corrupted = True
                role.app_error = True
                continue
            role.packets_handled += 1
            self._handler = role.handle(packet)
            # The first step sends None, the value of the finished event.
            if not self._advance(source.engine.finished):
                return  # the handler waits on a pending event

    def _advance(self, event: Event) -> bool:
        """Send ``event``'s outcome into the handler and keep going until
        it waits on a pending event (False) or returns (True)."""
        handler = self._handler
        try:
            while True:
                if event._exception is None:
                    event = handler.send(event._value)
                else:
                    event = handler.throw(event._exception)
                if not event._dispatched:
                    break
        except StopIteration:
            self._handler = None
            return True
        self._waiting_on = event
        event.add_callback(self._resume)
        return False

    def _resume(self, event: Event) -> None:
        """The start event, or the event the handler waits on, dispatched."""
        if event is not self._waiting_on:
            return  # the port was closed
        self._waiting_on = None
        if self._handler is None or self._advance(event):
            self.feed()

    def close(self) -> None:
        """Stop serving (the role is being replaced): close the handler
        and leave the event it waits on, as ``Process.kill`` does
        (:meth:`Event.abandon`), so no FIFO or timer hands it more work
        and a queued timeout no longer holds a bare ``run()`` open."""
        if self._waiting_on is not None:
            self._waiting_on.abandon(self._resume)
        self._waiting_on = None
        if self._handler is not None:
            self._handler.close()
            self._handler = None
        self.role = None


class Role:
    """Base class for application roles."""

    name = "role"

    def __init__(self) -> None:
        self.shell: "Shell | None" = None
        self.corrupted = False
        self.app_error = False  # reported in the health vector
        self.packets_handled = 0
        self.port: RolePort | None = None  # the shell's ROLE port once attached

    # -- lifecycle ----------------------------------------------------------

    def attach(self, shell: "Shell") -> None:
        """Bind to a shell, whose ROLE port starts handing us packets."""
        self.shell = shell
        self.port = RolePort(shell, self)
        self.on_attach()

    def detach(self) -> None:
        """Stop receiving (role being replaced by reconfiguration)."""
        if self.port is not None:
            self.port.close()
        self.port = None
        self.shell = None

    def on_attach(self) -> None:
        """Hook for subclasses (start extra processes, load state)."""

    # -- data path ------------------------------------------------------------

    def handle(self, packet: Packet) -> collections.abc.Generator:
        """Process one packet; override in subclasses.  Must be a generator."""
        if False:  # pragma: no cover - makes the default a generator
            yield
        return

    def send(self, packet: Packet):
        """Send a packet into the fabric; returns an event to yield."""
        if self.shell is None:
            raise RuntimeError(f"role {self.name} is not attached to a shell")
        return self.shell.send_from_role(packet)

    def reset(self) -> None:
        """Reconfiguration clears role state (called by the shell)."""
        self.corrupted = False
        self.app_error = False

    def __repr__(self) -> str:
        return f"<Role {self.name} handled={self.packets_handled}>"


class PassthroughRole(Role):
    """The idle role of a spare node: it consumes what reaches it."""

    name = "passthrough"

    def handle(self, packet: Packet) -> collections.abc.Generator:
        return
        yield
