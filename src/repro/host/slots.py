"""The user-level slot API (§3.1).

Thread safety comes from static ownership: the buffer is divided into
64 slots and each thread gets exclusive access to one or more of them.
A thread sends by filling its input slot and setting the full bit; it
then sleeps until the FPGA's response interrupt fills the matching
output slot.

Slot ids have one owner: the server's shared :class:`SlotAllocator`
(:func:`shared_slot_allocator`).  A thread acquires its ids there and
wraps each in a :class:`SlotLease`.
"""

from __future__ import annotations

import collections.abc
import dataclasses

from repro.fabric.server import Server
from repro.shell.messages import Packet, PacketKind
from repro.sim.units import US

# §3.1: the FPGA "generates an interrupt to wake and notify the
# consumer thread".  Kernel interrupt delivery plus scheduler wakeup of
# a sleeping thread on a loaded 2012-era server.
INTERRUPT_WAKE_NS = 25 * US


class SlotExhausted(Exception):
    """More threads than slots — the static assignment cannot be made."""


@dataclasses.dataclass
class SlotLease:
    """Exclusive use of one input/output slot pair by one thread.

    ``slot_id`` must come from the server's shared allocator, which
    guarantees no other lease holds it.
    """

    server: Server
    slot_id: int
    timeouts: int = 0

    def request(
        self, dst: tuple, size_bytes: int, payload: object = None,
        timeout_ns: float | None = None,
    ) -> collections.abc.Generator:
        """Send one request and wait for its response (generator).

        Yields the response packet's payload, or raises
        :class:`RequestTimeout` after ``timeout_ns`` — the §3.2 path
        for dropped packets: "the host will time out and divert the
        request to a higher-level failure handling protocol".  The
        guard is one deadline in ``engine.deadlines``, armed once the
        request is in its slot and disarmed when the request resolves.
        """
        server = self.server
        engine = server.engine
        packet = Packet(
            kind=PacketKind.REQUEST,
            src=server.node_id,
            dst=dst,
            size_bytes=size_bytes,
            payload=payload,
            injected_at_ns=engine.now,
        )
        buffers = server.buffers
        yield buffers.fill_input(self.slot_id, packet)
        consumer = buffers.consume_output(self.slot_id)
        deadline = None
        if timeout_ns is not None:
            deadline = engine.deadlines.arm(
                timeout_ns, _expire, (buffers, self.slot_id, consumer, packet.trace_id)
            )
        try:
            response = yield consumer
        except RequestTimeout:
            self.timeouts += 1
            raise
        except GeneratorExit:
            # Killed mid-request: a late response must stay in the slot
            # rather than reach a consumer that is gone.
            buffers.withdraw(self.slot_id, consumer)
            raise
        finally:
            # Disarm the guard so it does not keep a bare run() alive
            # for the full timeout after the request resolved.
            if deadline is not None:
                engine.deadlines.disarm(deadline)
        # The response interrupt must wake this sleeping thread (§3.1).
        yield engine.timeout(INTERRUPT_WAKE_NS)
        return response


class RequestTimeout(Exception):
    """A request's response never arrived (packet dropped in fabric)."""


def _expire(guard: tuple) -> None:
    """A request's guard deadline fired: withdraw the waiting consumer,
    unless the response already reached it, and fail it."""
    buffers, slot_id, consumer, trace_id = guard
    if buffers.withdraw(slot_id, consumer):
        consumer.fail(RequestTimeout(trace_id))


class SlotAllocator:
    """Partitions one server's slot pool among its deployments.

    Region tenants *share* a ring's servers, and a ring's next
    deployment shares them with its predecessor's unfinished requests;
    without a common free-list two of them would lease the same slot id
    and silently swallow each other's responses.  The allocator is the
    shared free-list — cached on the server so every deployment on that
    server sees the same one.
    """

    def __init__(self, server: Server):
        self.server = server
        self._free = list(range(server.buffers.slot_count))
        self.owners: dict[int, str] = {}
        # SimSanitizer lease tokens by slot id (sanitized engines only).
        self._tokens: dict[int, object] = {}

    @property
    def free_count(self) -> int:
        return len(self._free)

    def acquire(
        self, count: int, owner: str = "", owner_obj: object = None
    ) -> list[int]:
        """Take up to ``count`` slot ids; raises when none are left.

        ``owner_obj`` (e.g. the tenant :class:`Deployment`) is handed
        to the engine's sanitizer, when one is active, so a lease whose
        owner is released without returning its slots is reported as a
        leak with this call site.
        """
        if not self._free:
            raise SlotExhausted(
                f"{self.server.machine_id}: all "
                f"{self.server.buffers.slot_count} slots are owned"
            )
        taken = self._free[:count]
        del self._free[:count]
        for slot_id in taken:
            self.owners[slot_id] = owner
        sanitizer = getattr(self.server.engine, "sanitizer", None)
        if sanitizer is not None:
            for slot_id in taken:
                self._tokens[slot_id] = sanitizer.track_lease(
                    kind="slot-lease",
                    label=f"{self.server.machine_id}/slot{slot_id} ({owner})",
                    owner=owner_obj,
                )
        return taken

    def hand_over(self, slot_ids: collections.abc.Iterable[int]) -> None:
        """Detach owned slots from their released deployment's leak
        check: each is still held by an in-flight request or a
        quarantine drain, which releases it when it finishes (or, if
        the response was lost in the fabric, retires it for good)."""
        for slot_id in slot_ids:
            token = self._tokens.get(slot_id)
            if token is not None:
                token.owner = None

    def release(self, slot_ids: collections.abc.Iterable[int]) -> None:
        for slot_id in slot_ids:
            if self.owners.pop(slot_id, None) is not None:
                self._free.append(slot_id)
            token = self._tokens.pop(slot_id, None)
            if token is not None:
                token.close()
        self._free.sort()


def shared_slot_allocator(server: Server) -> SlotAllocator:
    """The server's (lazily created) shared allocator."""
    allocator = getattr(server, "slot_allocator", None)
    if allocator is None:
        allocator = SlotAllocator(server)
        server.slot_allocator = allocator
    return allocator
