"""Composite multi-ring services: one replica spanning several rings.

The paper's ranking accelerator spans 8 FPGAs — exactly one torus ring —
but §2.3 is explicit that the fabric composes *groups* of FPGAs into
services, and larger accelerators would span multiple rings reached
over the torus.  :class:`CompositeDeployment` is that shape: a gang of
member :class:`~repro.cluster.deployment.Deployment` rings linked into
one request path.  A request enters member ring 0; each stage's
response is forwarded as the request to the next member ring's head
node; latency is measured end to end across the whole chain.

The composite exposes the same sink surface as a single ring —
``submit`` / ``outstanding`` / ``health_weight()`` (the *minimum* over
members: a chain is only as servable as its weakest link) — so the
front-end :class:`~repro.cluster.load_balancer.LoadBalancer`, the
open-loop injector, and ``ClusterManager.reconcile()`` operate on it
unchanged.  Failure semantics follow from the min: a member ring that
exhausts its spares drives the replica's weight to zero, and the
control-plane watchdog releases the whole gang and re-places it
all-or-nothing (:meth:`~repro.cluster.scheduler.ClusterScheduler
.place`).
"""

from __future__ import annotations

import collections.abc

from repro.analysis import ReservoirSample, ThroughputMeter
from repro.cluster.deployment import Deployment
from repro.fabric.datacenter import Datacenter
from repro.sim import Engine
from repro.sim.units import SEC


class CompositeDeployment:
    """One service replica composed of several member rings in a chain.

    When the owning ``datacenter`` is supplied, each stage-to-stage
    handoff is charged the inter-pod cable-run latency for the pod
    distance between consecutive members
    (``Datacenter.INTER_POD_HOP_NS`` per hop on the pod loop) — the
    cost gang placement minimises by choosing adjacent pods.
    """

    def __init__(
        self,
        engine: Engine,
        members: collections.abc.Sequence[Deployment],
        datacenter: Datacenter | None = None,
    ):
        if not members:
            raise ValueError("a composite needs at least one member ring")
        services = {member.service.name for member in members}
        if len(services) != 1:
            raise ValueError(
                f"members of one composite must share a service, got {services}"
            )
        self.engine = engine
        self.members = list(members)
        self.hop_delays_ns = [
            Datacenter.INTER_POD_HOP_NS
            * datacenter.pod_distance(a.pod.pod_id, b.pod.pod_id)
            if datacenter is not None
            else 0.0
            for a, b in zip(self.members, self.members[1:], strict=False)
        ]
        self.service = self.members[0].service
        self.name = (
            self.service.name
            + "@"
            + "->".join(
                f"pod{member.pod.pod_id}/ring{member.ring_x}"
                for member in self.members
            )
        )
        self.meter = ThroughputMeter(engine)
        self.latencies_ns = ReservoirSample()
        self.completed = 0
        self.timeouts = 0
        self.outstanding = 0  # in-flight composite requests (whole chains)

    # -- health / capacity -----------------------------------------------------

    def health_weight(self) -> float:
        """The weakest member's weight — a chain with any dead ring is
        unservable, and a degraded member bounds the whole replica."""
        return min(member.health_weight() for member in self.members)

    @property
    def released(self) -> bool:
        """True once the scheduler reclaimed any member ring."""
        return any(member.released for member in self.members)

    # -- dispatch (sink protocol) ----------------------------------------------

    def submit(
        self,
        request: object,
        timeout_ns: float = 5 * SEC,
        arrived_ns: float | None = None,
    ) -> collections.abc.Generator:
        """Dispatch one request through the whole chain (a generator).

        Stage ``i``'s response rides to member ring ``i+1``'s head node
        as the next request; the adapter's host-side prep runs once, at
        the front of the chain.  ``timeout_ns`` is an end-to-end budget:
        each stage receives only the time remaining, so a chain never
        outlives the deadline a single ring would honour.  Returns the
        final response, or ``None`` once any stage times out.
        """
        arrived = arrived_ns if arrived_ns is not None else self.engine.now
        deadline = arrived + timeout_ns
        self.outstanding += 1
        try:
            payload = request
            for index, member in enumerate(self.members):
                if index > 0 and self.hop_delays_ns[index - 1] > 0.0:
                    # The response rides the inter-pod cable runs to the
                    # next member's pod (charged against the deadline).
                    yield self.engine.timeout(self.hop_delays_ns[index - 1])
                remaining = deadline - self.engine.now
                if remaining <= 0.0:
                    self.timeouts += 1
                    return None
                if member.released or member.assignment is None:
                    # The gang was released while this request was in
                    # flight between stages (reconcile, reshape, or
                    # scale-down): divert per §3.2 instead of crashing
                    # on the stale member handle.
                    self.timeouts += 1
                    return None
                response = yield from member.submit(
                    payload,
                    timeout_ns=remaining,
                    arrived_ns=self.engine.now,
                    include_prep=index == 0,
                )
                if response is None:
                    self.timeouts += 1
                    return None
                payload = response
            self.latencies_ns.append(self.engine.now - arrived)
            self.completed += 1
            self.meter.record()
            return payload
        finally:
            self.outstanding -= 1

    def __repr__(self) -> str:
        return (
            f"<CompositeDeployment {self.name} rings={len(self.members)} "
            f"completed={self.completed} outstanding={self.outstanding}>"
        )
