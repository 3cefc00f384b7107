"""Declarative service specification — the control plane's input.

The paper's production deployment is *operated*: the Mapping Manager
and Health Monitor keep 1,632 machines serving through failures (§2.3,
§3.5).  Operators do not hand-wire schedulers, balancers and monitors;
they declare what the service should look like and management software
converges the fleet onto it.  :class:`ServiceSpec` is that declaration:
a frozen description of the desired state — which service, how many
ring replicas, under which balancing policy, with what dispatch limits
and health-watchdog cadence.  The
:class:`~repro.cluster.manager.ClusterManager` consumes it via
``apply(spec)`` and owns every mechanism underneath.
"""

from __future__ import annotations

import collections.abc
import dataclasses

from repro.cluster.deployment import RequestAdapter
from repro.cluster.load_balancer import BALANCING_POLICIES
from repro.cluster.tenancy import PRIORITIES
from repro.services.mapping_manager import ServiceDefinition
from repro.sim.units import SEC


@dataclasses.dataclass(frozen=True)
class ServiceSpec:
    """Desired state of one datacenter service.

    ``replicas``
        Ring instances the control plane keeps servable.  Reconciliation
        re-places replicas lost to failures and converges scale-up /
        scale-down.

    ``rings_per_replica``
        Rings composing ONE replica.  The default (1) is the paper's
        ranking shape — one service instance per 8-FPGA ring; larger
        accelerators span multiple rings reached over the torus (§2.3),
        so each replica becomes a gang of rings linked into one request
        path (a :class:`~repro.cluster.composite.CompositeDeployment`).
        Gangs are placed all-or-nothing and fail as a unit: a member
        ring exhausting its spares makes the whole replica unservable,
        and reconciliation re-places the full gang.

    ``balancing``
        The front-end balancer's policy (``least_outstanding`` /
        ``weighted_health``).  Placement has one policy: whole rings
        spread across pods (:mod:`repro.cluster.scheduler`).

    ``adapter``
        Translates generic dispatch into service-specific wire traffic;
        shared across every replica (adapters are stateless).

    ``health_period_ns``
        Cadence of the per-service health watchdog: how often the
        manager sweeps the replicas' ring nodes through the pod Health
        Monitors and reconciles afterwards.

    ``regions``
        Fraction of a ring each replica needs, or ``None`` (default)
        for the paper's whole-ring shape.  A fractional declaration
        makes each replica a *tenant*: the scheduler bin-packs it onto
        a shared ring's free region beside other small services.  Only
        single-ring replicas can be region tenants.

    ``priority``
        Dispatch class of a region tenant: ``latency`` tenants hold a
        2x weighted share of the shared injection slots and may evict a
        ``batch`` tenant's region when no free region remains (the
        evicted tenant is re-placed elsewhere).  Whole-ring services
        ignore this (they never share resources).
    """

    service: ServiceDefinition
    replicas: int = 1
    rings_per_replica: int = 1
    balancing: str = "least_outstanding"
    adapter: RequestAdapter | None = None
    slots_per_server: int = 48
    request_timeout_ns: float = 5 * SEC
    health_period_ns: float = 10 * SEC
    regions: float | None = None
    priority: str = "batch"

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError(f"need at least one replica, got {self.replicas}")
        if self.rings_per_replica < 1:
            raise ValueError(
                f"need at least one ring per replica, got {self.rings_per_replica}"
            )
        if self.priority not in PRIORITIES:
            raise ValueError(
                f"unknown priority {self.priority!r}; choose from {PRIORITIES}"
            )
        if self.regions is not None:
            if not 0.0 < self.regions <= 1.0:
                raise ValueError(
                    f"regions must be a ring fraction in (0, 1], got {self.regions}"
                )
            if self.rings_per_replica != 1:
                raise ValueError(
                    "region tenants are single-ring replicas; "
                    f"rings_per_replica={self.rings_per_replica} cannot "
                    "also declare regions"
                )
        if self.balancing not in BALANCING_POLICIES:
            raise ValueError(
                f"unknown balancing policy {self.balancing!r}; "
                f"choose from {BALANCING_POLICIES}"
            )
        if self.slots_per_server < 1:
            raise ValueError(
                f"slots_per_server must be positive, got {self.slots_per_server}"
            )
        if self.request_timeout_ns <= 0:
            raise ValueError(
                f"request timeout must be positive, got {self.request_timeout_ns}"
            )
        if self.health_period_ns <= 0:
            raise ValueError(
                f"health period must be positive, got {self.health_period_ns}"
            )

    @property
    def name(self) -> str:
        return self.service.name

    def with_replicas(self, replicas: int) -> "ServiceSpec":
        """The same declaration at a different scale."""
        return dataclasses.replace(self, replicas=replicas)

    # -- declarative (JSON) form -----------------------------------------------

    def to_dict(self) -> dict:
        """Canonical JSON form of this declaration.

        The two non-data fields serialize by *name*: ``service`` is the
        :class:`ServiceDefinition`'s name (definitions carry role
        constructors — code — and are resolved from a catalog on the
        way back in) and ``adapter`` is the adapter's class name (or
        ``None`` for the default).  Everything else is the plain field
        value, so ``from_dict(to_dict(s), ...) == s`` when the same
        definition and adapter objects are supplied.
        """
        return {
            "service": self.service.name,
            "replicas": self.replicas,
            "rings_per_replica": self.rings_per_replica,
            "balancing": self.balancing,
            "adapter": (
                type(self.adapter).__name__ if self.adapter is not None else None
            ),
            "slots_per_server": self.slots_per_server,
            "request_timeout_ns": self.request_timeout_ns,
            "health_period_ns": self.health_period_ns,
            "regions": self.regions,
            "priority": self.priority,
        }

    @classmethod
    def from_dict(
        cls,
        document: dict,
        services: "collections.abc.Mapping[str, ServiceDefinition]",
        adapters: "collections.abc.Mapping[str, RequestAdapter] | None" = None,
    ) -> "ServiceSpec":
        """Build a spec from its :meth:`to_dict` form.

        ``services`` is the catalog resolving the document's ``service``
        name to a live :class:`ServiceDefinition`; ``adapters`` resolves
        a non-null ``adapter`` name the same way.  Field validation is
        the constructor's own ``__post_init__`` — an invalid document
        raises exactly the error direct construction would.
        """
        if not isinstance(document, dict):
            raise ValueError(
                f"ServiceSpec document must be a mapping, got "
                f"{type(document).__name__}"
            )
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(document) - known
        if unknown:
            raise ValueError(
                f"unknown ServiceSpec fields: {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        if "service" not in document:
            raise ValueError("a service declaration needs a 'service' name")
        service_name = document["service"]
        if service_name not in services:
            raise ValueError(
                f"unknown service {service_name!r}: not in the catalog "
                f"(have: {sorted(services)})"
            )
        adapter = None
        adapter_name = document.get("adapter")
        if adapter_name is not None:
            if adapters is None or adapter_name not in adapters:
                raise ValueError(
                    f"unknown adapter {adapter_name!r} for service "
                    f"{service_name!r} (have: "
                    f"{sorted(adapters) if adapters else []})"
                )
            adapter = adapters[adapter_name]
        fields = {
            key: value
            for key, value in document.items()
            if key not in ("service", "adapter")
        }
        return cls(service=services[service_name], adapter=adapter, **fields)
