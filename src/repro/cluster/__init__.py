"""Cluster-level service orchestration.

The paper's production story is many rings across many pods serving one
datacenter-scale service (§2.3), kept alive by management software.
This package is that layer, split into a declarative control plane and
the mechanism underneath:

Control plane
    A frozen :class:`ServiceSpec` declares the desired state (service,
    replica count, policies, watchdog cadence); ``ClusterManager
    .apply(spec)`` converges the datacenter onto it and returns a
    :class:`ServiceHandle` for status, rescaling and upgrades; requests
    enter through ``manager.endpoint(name)``, a
    :class:`ServiceEndpoint` over the service's balancer.  The
    manager wires per-pod Health Monitors to the shared Mapping
    Managers and runs health-driven reconciliation: failed rings rotate
    onto spares, exhausted rings are released (slots cordoned) and
    re-placed on free capacity.  A :class:`RepairPolicy` closes the
    repair half of the loop — every cordon opens a
    :class:`ServiceTicket` in the :class:`RepairQueue`, and on expiry
    the hardware is reset and the slot un-cordoned automatically;
    ``handle.upgrade(new_spec)`` rolls replicas onto a new service
    definition one gang at a time.  :class:`ClusterFailureInjector`,
    the one failure injector, fails hardware at any ``(pod, node)`` or
    at a deployed service's ring for resilience experiments.

Mechanism
    A :class:`ClusterScheduler` places :class:`ServiceDefinition`s onto
    free torus rings across pods (capacity, spare, and cordon
    accounting), each placement yielding a generic per-ring
    :class:`Deployment`; a front-end :class:`LoadBalancer` dispatches
    requests across the deployed rings under pluggable policies.
    Replicas spanning several rings (``rings_per_replica``) are placed
    as all-or-nothing gangs and linked into one request path by a
    :class:`CompositeDeployment` (§2.3: services compose groups of
    FPGAs over the torus).  Open-loop traffic sources that drive the
    front end live in :mod:`repro.workloads.openloop`.
"""

from repro.cluster.bitstream_cache import (
    BitstreamCache,
    CACHED_RELOAD_NS,
)
from repro.cluster.clusterfile import (
    ClusterApply,
    ClusterDiff,
    DiffEntry,
    apply_cluster,
    apply_file,
    diff_cluster,
    dump_cluster,
    load_cluster,
)
from repro.cluster.composite import CompositeDeployment
from repro.cluster.deployment import Deployment, RequestAdapter
from repro.cluster.echo import EchoRole, echo_service
from repro.cluster.endpoint import ServiceEndpoint
from repro.cluster.failures import ClusterFailureInjector
from repro.cluster.load_balancer import (
    BALANCING_POLICIES,
    LoadBalancer,
    NoHealthyDeployment,
)
from repro.cluster.manager import (
    ClusterManager,
    ReconcileAction,
    ReconcileReport,
    RingStatus,
    ServiceHandle,
    ServiceStatus,
)
from repro.cluster.metrics import MetricsRegistry, read_series
from repro.cluster.repair import (
    RepairPolicy,
    RepairQueue,
    ServiceTicket,
)
from repro.cluster.scheduler import (
    CapacityReport,
    ClusterScheduler,
    InsufficientClusterCapacity,
    PlacementFailed,
    PodCapacity,
)
from repro.cluster.spec import ServiceSpec
from repro.cluster.tenancy import (
    PRIORITIES,
    PRIORITY_WEIGHT,
    RegionClaim,
    RingTenancy,
    region_node_count,
    slot_quota,
)
from repro.fabric.datacenter import RingSlot

__all__ = [
    "BALANCING_POLICIES",
    "BitstreamCache",
    "CACHED_RELOAD_NS",
    "CapacityReport",
    "ClusterApply",
    "ClusterDiff",
    "ClusterFailureInjector",
    "ClusterManager",
    "ClusterScheduler",
    "CompositeDeployment",
    "Deployment",
    "DiffEntry",
    "EchoRole",
    "echo_service",
    "InsufficientClusterCapacity",
    "LoadBalancer",
    "MetricsRegistry",
    "NoHealthyDeployment",
    "PRIORITIES",
    "PRIORITY_WEIGHT",
    "PlacementFailed",
    "PodCapacity",
    "ReconcileAction",
    "ReconcileReport",
    "RegionClaim",
    "RepairPolicy",
    "RepairQueue",
    "RequestAdapter",
    "RingSlot",
    "RingStatus",
    "RingTenancy",
    "ServiceEndpoint",
    "ServiceHandle",
    "ServiceSpec",
    "ServiceStatus",
    "ServiceTicket",
    "apply_cluster",
    "apply_file",
    "diff_cluster",
    "dump_cluster",
    "load_cluster",
    "read_series",
    "region_node_count",
    "slot_quota",
]
