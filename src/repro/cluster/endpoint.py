"""Stable virtual endpoints: the cluster's VIP front door.

Every service request enters here.  The
:class:`~repro.cluster.manager.ServiceHandle` returned by ``apply()``
is control plane only, and drain + re-apply replaces it, so a workload
holding it would have to be re-threaded whenever the operator surface
recreated a service.  A :class:`ServiceEndpoint` removes that coupling
the way a VIP in front of a load-balancer pool decouples clients from
pool membership: it names a *service*, not an object, and resolves the
live handle's :class:`~repro.cluster.load_balancer.LoadBalancer` at
each dispatch.  The endpoint therefore survives re-placement,
preemption, rolling upgrades, repair — and even a full drain +
re-declaration, including one driven from a cluster file
(:mod:`repro.cluster.clusterfile`).

While the named service is absent (drained and not yet re-applied),
``submit`` raises :class:`~repro.cluster.load_balancer
.NoHealthyDeployment` — the same signal a total outage produces — so an
:class:`~repro.workloads.openloop.OpenLoopInjector` sheds arrivals at
the front door and recovers the moment the service returns.
"""

from __future__ import annotations

import collections.abc
import typing

from repro.cluster.load_balancer import NoHealthyDeployment

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.manager import ClusterManager, ServiceHandle, ServiceStatus


class ServiceEndpoint:
    """A stable front door for one named service.

    Satisfies the open-loop injector's sink protocol (``outstanding`` +
    generator ``submit``), so workloads can be wired to the endpoint
    once and left alone across the service's whole lifecycle.  Obtain
    via :meth:`ClusterManager.endpoint` — endpoints are memoized per
    name and may be created before the service is first applied.
    """

    def __init__(self, manager: "ClusterManager", name: str):
        self.manager = manager
        self.name = name

    # -- resolution ------------------------------------------------------------

    @property
    def handle(self) -> "ServiceHandle | None":
        """The live handle currently behind this endpoint, if any."""
        handle = self.manager.handles.get(self.name)
        if handle is None or not handle.active:
            return None
        return handle

    @property
    def attached(self) -> bool:
        """Whether a live service currently answers to this name."""
        return self.handle is not None

    # -- dispatch (open-loop sink protocol) ------------------------------------

    @property
    def outstanding(self) -> int:
        handle = self.handle
        return handle.balancer.outstanding if handle is not None else 0

    def submit(
        self, request: object, timeout_ns: float | None = None
    ) -> collections.abc.Generator:
        """Dispatch one request to whatever serves the name right now.

        Resolution happens per dispatch, so a request submitted after a
        drain + re-apply lands on the new incarnation with no caller
        rewiring.  With nothing behind the VIP the request is refused
        with :class:`NoHealthyDeployment` (shed at the front door).
        ``timeout_ns`` defaults to the live spec's request timeout.
        """
        handle = self.handle
        if handle is None:
            raise NoHealthyDeployment(
                f"endpoint {self.name!r}: no service behind the front door"
            )
        if timeout_ns is None:
            timeout_ns = handle.spec.request_timeout_ns
        return (yield from handle.balancer.submit(request, timeout_ns=timeout_ns))

    # -- fluid fast-forward (optional sink extension) --------------------------

    # An endpoint's sink has no deterministic per-request service time
    # (requests traverse leases, fabric hops, and health-weighted
    # rings), so its profile is the *sampler* form: fluid windows draw
    # sojourns from the balancer's own latency reservoir — the
    # empirical steady-state distribution the discrete path measured.
    # Cold start (too few samples) or any degraded ring returns None,
    # which keeps the injector discrete until the service has both
    # warmed up and healed; the profile is re-queried at every window.

    FLUID_MIN_SAMPLES = 64

    def fluid_profile(self):
        handle = self.handle
        if handle is None:
            return None
        balancer = handle.balancer
        reservoir = balancer.latencies_ns
        if reservoir.sample_size < self.FLUID_MIN_SAMPLES:
            return None
        if any(d.health_weight() <= 0.0 for d in balancer.deployments):
            return None
        from repro.sim.fluid import FluidProfile

        def sampler(rng, _reservoir=reservoir):
            return _reservoir[rng.randrange(_reservoir.sample_size)]

        return FluidProfile(servers=len(balancer.deployments), sampler=sampler)

    def note_fluid(self, window) -> None:
        """Reconcile an analytic window's counters into the live
        balancer (no-op while detached — the window was credited by a
        profile taken when a handle was attached, and a detach since
        then would have ended the window at its transient)."""
        handle = self.handle
        if handle is not None:
            handle.balancer.record_fluid(window)

    # -- observation -----------------------------------------------------------

    def status(self) -> "ServiceStatus":
        handle = self.handle
        if handle is None:
            raise KeyError(f"endpoint {self.name!r}: service not applied")
        return handle.status()

    def __repr__(self) -> str:
        state = "attached" if self.attached else "detached"
        return f"<ServiceEndpoint {self.name} {state}>"
