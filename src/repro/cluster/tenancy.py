"""Ring tenancy: every placement is a region claim on a ring.

The paper dedicates one 8-FPGA ring per service (§2.3); RC3E-style
cloud provisioning instead hands *virtual* FPGA regions to multiple
tenants, and Coyote raises the abstraction so several roles share one
device.  This module generalises the first into the second: every
placement claims a **region** of a ring's nodes.  A whole ring, or one
member ring of a gang, is a claim over every node of its ring; a small
service is a narrower claim, and several such tenants co-reside on one
ring, each owning its region's nodes outright (one role per shell, so
isolation is physical).  A region takes the first free nodes in ring
order, so after a release its nodes need not be contiguous.

A :class:`RegionClaim` is one grant: its nodes, its declared ring
fraction, its priority class, and its *slot quota* — the weighted fair
share of each injection server's 64 PCIe slots the claim may hold
concurrently.  Quotas are the dispatch-path isolation: co-resident
tenants share the ring's servers, so without them one tenant's burst
could occupy every slot and starve its neighbours.  Latency-class
tenants weigh twice batch-class ones, and the weighted shares are
normalised so they can never oversubscribe the pool.

:class:`RingTenancy` is one ring's occupancy ledger (claims, cordons,
free nodes); the scheduler keeps one per ring that holds a claim or a
cordon.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import math

from repro.fabric.datacenter import RingSlot
from repro.fabric.torus import NodeId
from repro.hardware.bitstream import ResourceBudget, shell_budget
from repro.services.mapping_manager import ServiceDefinition

PRIORITIES = ("latency", "batch")

# Dispatch-path weights: a latency tenant gets its full proportional
# slot share, a batch tenant half — Σ(quota) never exceeds the pool.
PRIORITY_WEIGHT = {"latency": 2.0, "batch": 1.0}


def region_node_count(service: ServiceDefinition, fraction: float, ring_size: int) -> int:
    """Nodes a ``fraction``-sized region of a ``ring_size`` ring spans.

    At least the service's active role count — a region that cannot
    host every role is no region at all — and rounded *up* so a
    declared fraction is a guarantee, not a hint.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"region fraction must be in (0, 1], got {fraction}")
    by_fraction = math.ceil(fraction * ring_size - 1e-9)
    return max(len(service.roles), by_fraction, 1)


def slot_quota(fraction: float, priority: str, slots_per_server: int) -> int:
    """Weighted fair share of one server's slot pool for a tenant.

    ``slots_per_server * fraction`` is the tenant's proportional share;
    the priority weight scales it relative to the heaviest class, so
    shares stay normalised (a half-ring batch tenant alongside a
    half-ring latency tenant holds half as many slots, and the two
    together never exceed the pool).
    """
    if priority not in PRIORITIES:
        raise ValueError(f"unknown priority {priority!r}; choose from {PRIORITIES}")
    weight = PRIORITY_WEIGHT[priority] / max(PRIORITY_WEIGHT.values())
    return max(1, math.floor(slots_per_server * fraction * weight))


def check_region_fit(service: ServiceDefinition, device) -> None:
    """Every role image must fit the per-node headroom beside the shell.

    Raises ``ValueError`` at claim time instead of letting the FPGA
    reject the image a simulated second into the configure."""
    headroom = (
        ResourceBudget(device.alms, device.m20k_blocks, device.dsp_blocks)
        - shell_budget(device)
    )
    for spec in (*service.roles, service.spare):
        if not spec.bitstream.role_budget.fits_within(headroom):
            raise ValueError(
                f"role {spec.name!r} of {service.name!r} exceeds the "
                f"per-node region budget on {device.name}"
            )


@dataclasses.dataclass(frozen=True)
class RegionClaim:
    """One grant of a region of a ring: a tenant's, or a whole ring's."""

    slot: RingSlot
    index: int  # claim ordinal on its ring (stable display/name key)
    service: str
    fraction: float | None  # None for a whole ring or gang member
    priority: str
    nodes: tuple  # NodeIds of the region, in ring order
    slot_quota: int  # concurrent PCIe slots per injection server

    @property
    def whole(self) -> bool:
        """A whole ring or gang member, not a tenant — even a tenant
        whose region spans every node of its ring."""
        return self.fraction is None

    def __str__(self) -> str:
        share = "whole" if self.whole else f"{self.fraction:.2f}"
        return (
            f"region{self.index}[{self.service} {share} "
            f"{self.priority} nodes={len(self.nodes)}]"
        )


class RingTenancy:
    """Occupancy ledger of one ring: claims, cordons, free nodes."""

    def __init__(self, slot: RingSlot, ring_nodes: collections.abc.Sequence[NodeId]):
        self.slot = slot
        self.ring_nodes = list(ring_nodes)
        self.claims: dict[str, RegionClaim] = {}  # service name -> claim
        self.occupants: dict[str, object] = {}  # service name -> Deployment
        self.cordoned: dict[tuple, str] = {}  # region nodes -> reason
        self._next_index = 0

    # -- node accounting ---------------------------------------------------------

    @property
    def claimed_nodes(self) -> set:
        return {node for claim in self.claims.values() for node in claim.nodes}

    @property
    def cordoned_nodes(self) -> set:
        return {node for nodes in self.cordoned for node in nodes}

    def free_nodes(self) -> list[NodeId]:
        busy = self.claimed_nodes | self.cordoned_nodes
        return [node for node in self.ring_nodes if node not in busy]

    @property
    def empty(self) -> bool:
        return not self.claims and not self.cordoned

    def narrower(self, nodes: collections.abc.Sized) -> bool:
        """Whether cordoned ``nodes`` leave part of the ring out: a bad
        node run, not a whole-ring cordon."""
        return len(nodes) < len(self.ring_nodes)

    # -- claims ------------------------------------------------------------------

    def can_host(self, service_name: str, node_count: int) -> bool:
        """Room for ``node_count`` more nodes, one claim per service.

        One claim per service per ring keeps replicas of a service on
        *different* rings — the same blast-radius argument as the
        spread placement policy, applied within the tenancy layer.
        """
        if service_name in self.claims:
            return False
        return len(self.free_nodes()) >= node_count

    def claim(
        self,
        service_name: str,
        fraction: float | None,
        priority: str,
        node_count: int,
        slots_per_server: int,
    ) -> RegionClaim:
        if not self.can_host(service_name, node_count):
            raise ValueError(
                f"{self.slot}: no region of {node_count} nodes for "
                f"{service_name!r}"
            )
        nodes = tuple(self.free_nodes()[:node_count])
        claim = RegionClaim(
            slot=self.slot,
            index=self._next_index,
            service=service_name,
            fraction=fraction,
            priority=priority,
            nodes=nodes,
            slot_quota=(
                slots_per_server
                if fraction is None
                else slot_quota(fraction, priority, slots_per_server)
            ),
        )
        self._next_index += 1
        self.claims[service_name] = claim
        return claim

    def claim_whole(self, service_name: str, slots_per_server: int) -> RegionClaim:
        """Claim every node: a whole ring, or one member ring of a gang.

        It holds the whole slot budget, and as a latency claim it is
        never a preemption victim.
        """
        return self.claim(
            service_name, None, "latency", len(self.ring_nodes), slots_per_server
        )

    def release(self, claim: RegionClaim) -> None:
        existing = self.claims.get(claim.service)
        if existing is not claim:
            raise KeyError(f"{claim} is not held on {self.slot}")
        del self.claims[claim.service]

    # -- per-region cordons ------------------------------------------------------

    def cordon_region(self, nodes: collections.abc.Sequence[NodeId], reason: str = "") -> None:
        """Hold a node run out of the free pool (bad hardware inside)."""
        self.cordoned.setdefault(tuple(nodes), reason)

    def clear_cordons(self) -> None:
        self.cordoned.clear()

    def __repr__(self) -> str:
        return (
            f"<RingTenancy {self.slot} tenants={sorted(self.claims)} "
            f"free={len(self.free_nodes())}/{len(self.ring_nodes)}>"
        )
