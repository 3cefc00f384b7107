"""The hardware-lifecycle subsystem: service tickets and timed repair.

The paper's §3.5 failure handling is a *loop*, not a one-way valve:
the Health Monitor diagnoses, the Mapping Manager maps out the bad
hardware, "a service ticket is raised to replace the faulty
components" — and once the technician swaps the card, the capacity
returns to the pool.  The control plane so far implemented only the
first half; a cordoned slot stayed cordoned until an operator called
``uncordon()`` by hand, so long experiments bled capacity forever.

This module closes the loop.  A :class:`RepairQueue` opens a
:class:`ServiceTicket` whenever a slot is cordoned (the scheduler
notifies an attached queue) or when deployment-time manufacturing
tests find failed cards.  Each ticket draws a repair time from the
:class:`RepairPolicy` distribution — deterministic via the sim RNG —
and on expiry the queue performs the technician's visit:
it resets the slot's hardware
(:meth:`~repro.fabric.datacenter.Datacenter.service_ring`), un-cordons
the slot through the scheduler, and fires its ``on_repaired``
callbacks so the :class:`~repro.cluster.manager.ClusterManager` can
immediately reconcile shortfall replicas onto the recovered capacity.

Repair times are lognormal: right-skewed service times (most swaps
are quick, a few wait on parts), parameterised so the distribution's
mean is ``mean_ns`` with log-space shape ``sigma``.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import math
import typing

from repro.fabric.datacenter import Datacenter, RingSlot
from repro.sim import Engine
from repro.sim.units import HOUR

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.scheduler import ClusterScheduler

@dataclasses.dataclass(frozen=True)
class RepairPolicy:
    """How long cordoned hardware waits for its technician: lognormal
    with mean ``mean_ns`` and log-space shape ``sigma``."""

    # The one distribution.  The field stays because the serving
    # benchmark's week workload names it.
    distribution: str = "lognormal"
    mean_ns: float = 4 * HOUR
    sigma: float = 0.5  # lognormal log-space shape

    def __post_init__(self) -> None:
        if self.distribution != "lognormal":
            raise ValueError(
                f"unknown repair distribution {self.distribution!r}; repairs are lognormal"
            )
        if self.mean_ns <= 0:
            raise ValueError(f"mean repair time must be positive, got {self.mean_ns}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    def repair_delay_ns(self, rng) -> float:
        """Time from ticket open until the repair completes."""
        # E[lognormal(mu, sigma)] = exp(mu + sigma^2/2) = mean_ns.
        mu = math.log(self.mean_ns) - self.sigma * self.sigma / 2.0
        return rng.lognormvariate(mu, self.sigma)


@dataclasses.dataclass
class ServiceTicket:
    """One open item of manual service: a ring awaiting its technician."""

    ticket_id: int
    slot: RingSlot
    reason: str
    opened_ns: float
    due_ns: float
    closed_ns: float | None = None
    outcome: str = ""  # "repaired" | "cancelled" once closed
    components_serviced: int = 0

    @property
    def open(self) -> bool:
        return self.closed_ns is None


class RepairQueue:
    """Opens, times, and resolves service tickets for cordoned slots."""

    def __init__(
        self,
        engine: Engine,
        datacenter: Datacenter,
        scheduler: "ClusterScheduler",
        policy: RepairPolicy | None = None,
    ):
        self.engine = engine
        self.datacenter = datacenter
        self.scheduler = scheduler
        self.policy = policy or RepairPolicy()
        self.tickets: list[ServiceTicket] = []
        self.on_repaired: list[collections.abc.Callable[[ServiceTicket], None]] = []
        self._open_by_slot: dict[RingSlot, ServiceTicket] = {}
        self._rng = engine.rng.stream("repair")
        if engine.fluid is not None:
            # Ticket expiries mutate cluster state (hardware serviced,
            # slot uncordoned, replicas reconciled): guarded, so fluid
            # windows end early enough for discrete warm-up to rebuild
            # in-flight traffic before the capacity change lands.
            engine.fluid.register(self, guarded=True)

    # -- observation -----------------------------------------------------------

    @property
    def open_tickets(self) -> list[ServiceTicket]:
        return [ticket for ticket in self.tickets if ticket.open]

    @property
    def closed_tickets(self) -> list[ServiceTicket]:
        return [ticket for ticket in self.tickets if not ticket.open]

    @property
    def repaired_count(self) -> int:
        return sum(1 for t in self.tickets if t.outcome == "repaired")

    def next_due_ns(self) -> float | None:
        """When the earliest open ticket resolves (None when idle)."""
        pending = self.open_tickets
        return min(ticket.due_ns for ticket in pending) if pending else None

    def next_transient_ns(self, now_ns: float) -> float:
        """Fluid :class:`~repro.sim.fluid.TransientSource` protocol:
        the earliest pending repair expiry strictly after ``now``."""
        pending = [t.due_ns for t in self.open_tickets if t.due_ns > now_ns]
        return min(pending) if pending else math.inf

    # -- lifecycle -------------------------------------------------------------

    def open_ticket(self, slot: RingSlot, reason: str = "") -> ServiceTicket:
        """Raise a service ticket for ``slot`` (idempotent per slot).

        The repair timer starts immediately; when it expires the queue
        services the ring's hardware, un-cordons the slot, and invokes
        the ``on_repaired`` callbacks.
        """
        existing = self._open_by_slot.get(slot)
        if existing is not None:
            return existing
        now = self.engine.now
        ticket = ServiceTicket(
            ticket_id=len(self.tickets),
            slot=slot,
            reason=reason,
            opened_ns=now,
            due_ns=now + self.policy.repair_delay_ns(self._rng),
        )
        self.tickets.append(ticket)
        self._open_by_slot[slot] = ticket
        # Daemon: a pending repair must not keep a bare run() alive
        # after the workload under test has finished.
        self.engine.process(
            self._repair_body(ticket),
            name=f"repair:{slot.pod_id}/{slot.ring_x}",
            daemon=True,
        )
        return ticket

    def cancel(self, slot: RingSlot) -> ServiceTicket | None:
        """Close ``slot``'s open ticket without servicing the hardware
        (an operator un-cordoned the slot out-of-band)."""
        ticket = self._open_by_slot.pop(slot, None)
        if ticket is not None:
            ticket.closed_ns = self.engine.now
            ticket.outcome = "cancelled"
        return ticket

    # -- the technician --------------------------------------------------------

    def _repair_body(self, ticket: ServiceTicket) -> collections.abc.Generator:
        yield self.engine.timeout(ticket.due_ns - self.engine.now)
        if not ticket.open:
            return  # cancelled (manual uncordon) while waiting
        self._open_by_slot.pop(ticket.slot, None)
        ticket.closed_ns = self.engine.now
        ticket.outcome = "repaired"
        if self.engine.fluid is not None:
            self.engine.fluid.note_transient()
        ticket.components_serviced = self.datacenter.service_ring(ticket.slot)
        # Serviced boards return with good hardware: lift every cordon
        # on the ring.
        self.scheduler.uncordon(ticket.slot)
        for callback in list(self.on_repaired):
            callback(ticket)

    def __repr__(self) -> str:
        return (
            f"<RepairQueue mean={self.policy.mean_ns:.0f}ns "
            f"open={len(self.open_tickets)} closed={len(self.closed_tickets)}>"
        )
