"""Ring tenancy: virtualized role regions on a shared ring.

The paper dedicates one 8-FPGA ring per service (§2.3); RC3E-style
cloud provisioning instead hands *virtual* FPGA regions to multiple
tenants, and Coyote raises the abstraction so several roles share one
device.  This module is the middle ground the fabric supports today: a
ring's nodes are carved into **regions** — contiguous runs of nodes in
ring order — and several small services become co-resident tenants of
one ring, each owning its region's nodes outright (one role per shell,
so isolation is physical).

A :class:`RegionClaim` is one tenant's grant: its node run, its declared
ring fraction, its priority class, and its *slot quota* — the weighted
fair share of each injection server's 64 PCIe slots the tenant may hold
concurrently.  Quotas are the dispatch-path isolation: co-resident
tenants share the ring's servers, so without them one tenant's burst
could occupy every slot and starve its neighbours.  Latency-class
tenants weigh twice batch-class ones, and the weighted shares are
normalised so they can never oversubscribe the pool.

:class:`RingTenancy` is a ring's occupancy ledger (claims, per-region
cordons, free nodes); the scheduler keeps one per shared ring.  The
:func:`pack_first_fit_decreasing` planner bin-packs a set of region
fractions onto the fewest rings — the classic FFD heuristic the
scheduler's ``deploy_region`` first-fit realises when requests arrive
largest-first.
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
    """One tenant's grant of a region on a shared ring."""

    slot: RingSlot
    index: int  # claim ordinal on its ring (stable display/name key)
    service: str
    fraction: float
    priority: str
    nodes: tuple  # NodeIds of the region, in ring order
    slot_quota: int  # concurrent PCIe slots per injection server

    def __str__(self) -> str:
        return (
            f"region{self.index}[{self.service} {self.fraction:.2f} "
            f"{self.priority} nodes={len(self.nodes)}]"
        )


class RingTenancy:
    """Occupancy ledger of one shared ring: claims, cordons, free nodes."""

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
    def free_fraction(self) -> float:
        return len(self.free_nodes()) / len(self.ring_nodes)

    @property
    def empty(self) -> bool:
        return not self.claims and not self.cordoned

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
        fraction: float,
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
            slot_quota=slot_quota(fraction, priority, slots_per_server),
        )
        self._next_index += 1
        self.claims[service_name] = claim
        return claim

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


def pack_first_fit_decreasing(
    requests: collections.abc.Sequence[tuple[str, float]],
) -> list[list[str]]:
    """Plan region packing: FFD bin-packing of fractions onto rings.

    ``requests`` is ``(name, fraction)`` pairs; the result is one list
    of names per ring, largest requests placed first — the classic
    first-fit-decreasing heuristic (≤ 11/9 OPT + 1 bins).  Ties break
    by name so planning is deterministic.
    """
    for name, fraction in requests:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(
                f"region fraction must be in (0, 1], got {fraction} for {name!r}"
            )
    bins: list[tuple[float, list[str]]] = []  # (remaining, names)
    ordered = sorted(requests, key=lambda item: (-item[1], item[0]))
    for name, fraction in ordered:
        for index, (remaining, names) in enumerate(bins):
            if fraction <= remaining + 1e-9:
                bins[index] = (remaining - fraction, names + [name])
                break
        else:
            bins.append((1.0 - fraction, [name]))
    return [names for _remaining, names in bins]
