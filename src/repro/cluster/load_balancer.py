"""The front-end load balancer dispatching requests across rings.

In production, requests from the search front door fan out across many
deployed ranking rings; the fabric itself only accelerates one ring's
worth of work (§4).  :class:`LoadBalancer` models that front end: it
picks a ring per request under a policy and aggregates
throughput/latency across the whole service.

Policies:

``least_outstanding``
    Send to the ring with the fewest in-flight requests — the classic
    join-shortest-queue front end; keeps per-ring tail latency balanced
    under skewed completion times.

``weighted_health``
    Weighted-random by each ring's health weight (healthy fraction of
    its nodes), so rings running degraded after a failure-triggered
    ring rotation receive proportionally less load.
"""

from __future__ import annotations

import collections.abc

from repro.analysis import LatencyStats, ReservoirSample, ThroughputMeter
from repro.cluster.deployment import Deployment
from repro.sim import Engine
from repro.sim.units import SEC

BALANCING_POLICIES = ("least_outstanding", "weighted_health")


class NoHealthyDeployment(Exception):
    """Every ring is unservable (failed below its role count)."""


class LoadBalancer:
    """Dispatches single requests across a set of ring deployments.

    The set may be empty — a service before its first placement, or
    after every ring died or drained; :meth:`pick` then raises
    :class:`NoHealthyDeployment`.
    """

    def __init__(
        self,
        engine: Engine,
        deployments: collections.abc.Sequence[Deployment],
        policy: str = "least_outstanding",
        name: str = "frontend",
    ):
        if policy not in BALANCING_POLICIES:
            raise ValueError(
                f"unknown balancing policy {policy!r}; "
                f"choose from {BALANCING_POLICIES}"
            )
        self.engine = engine
        self.deployments = list(deployments)
        self.policy = policy
        self.name = name
        self.meter = ThroughputMeter(engine)
        self.latencies_ns = ReservoirSample()
        self.dispatched = 0
        self.completed = 0
        self.timeouts = 0
        self._rng = engine.rng.stream(f"loadbalancer:{name}")

    # -- policy ----------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Total in-flight requests across all rings (queue depth)."""
        return sum(deployment.outstanding for deployment in self.deployments)

    def pick(self) -> Deployment:
        """Choose the ring for the next request under the active policy."""
        healthy = [d for d in self.deployments if d.health_weight() > 0.0]
        if not healthy:
            raise NoHealthyDeployment(f"{self.name}: no servable ring")
        if self.policy == "least_outstanding":
            return min(healthy, key=lambda d: d.outstanding)
        weights = [d.health_weight() for d in healthy]
        return self._rng.choices(healthy, weights)[0]

    # -- dispatch ----------------------------------------------------------------

    def submit(
        self, request: object, timeout_ns: float = 5 * SEC
    ) -> collections.abc.Generator:
        """Dispatch one request via the picked ring (a generator).

        Returns the response payload, or ``None`` on a fabric timeout.
        Latency is recorded from the dispatch instant, so it includes
        any lease queueing inside the chosen ring.
        """
        deployment = self.pick()
        self.dispatched += 1
        arrived = self.engine.now
        response = yield from deployment.submit(
            request, timeout_ns=timeout_ns, arrived_ns=arrived
        )
        if response is None:
            self.timeouts += 1
            return None
        self.completed += 1
        self.latencies_ns.append(self.engine.now - arrived)
        self.meter.record()
        return response

    # -- fluid reconciliation --------------------------------------------------

    def record_fluid(self, window) -> None:
        """Credit one analytic window's traffic into the counters.

        Fluid fast-forward (:mod:`repro.sim.fluid`) resolves whole
        stretches of requests without dispatching them; this folds the
        window's totals into the balancer — and, spread evenly, into
        each ring's meter and reservoir so per-ring QPS/skew figures
        stay continuous across fluid intervals.  A steady-state window
        by definition saw every healthy ring take its fair share.
        """
        self.dispatched += window.admitted
        self.completed += window.completed
        self.timeouts += window.timeouts
        completed = window.completed
        if not completed:
            return
        mean = window.mean_latency_ns
        self.latencies_ns.merge_analytic(completed, mean)
        self.meter.record_bulk(completed)
        healthy = [d for d in self.deployments if d.health_weight() > 0.0]
        if not healthy:
            return
        share, extra = divmod(completed, len(healthy))
        for index, deployment in enumerate(healthy):
            portion = share + (1 if index < extra else 0)
            if portion:
                deployment.latencies_ns.merge_analytic(portion, mean)
                deployment.meter.record_bulk(portion)
                deployment.completed += portion

    # -- aggregate reporting -------------------------------------------------------

    def start_measurement(self) -> None:
        """End warm-up on the aggregate and every per-ring meter."""
        self.meter.start_measurement()
        for deployment in self.deployments:
            deployment.meter.start_measurement()

    def stats(self) -> LatencyStats:
        """Exact count/mean/max with (reservoir-)sampled percentiles.

        Raises on zero completions, matching the old
        ``LatencyStats.from_samples`` contract.
        """
        if not self.latencies_ns:
            raise ValueError("no samples")
        return self.latencies_ns.summary()

    def per_ring_stats(self) -> dict[str, LatencyStats]:
        return {
            deployment.name: deployment.latencies_ns.summary()
            for deployment in self.deployments
            if deployment.latencies_ns
        }

    def per_ring_throughput(self) -> dict[str, float]:
        return {
            deployment.name: deployment.meter.per_second
            for deployment in self.deployments
        }

    def __repr__(self) -> str:
        return (
            f"<LoadBalancer {self.name} {self.policy} "
            f"rings={len(self.deployments)} completed={self.completed}>"
        )
