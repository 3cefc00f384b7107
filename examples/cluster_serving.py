#!/usr/bin/env python
"""Cluster serving, declaratively: apply a spec, watch it converge,
rescale it, drain it.

Builds a two-pod datacenter and hands the control plane a ServiceSpec —
"three ranking replicas, spread across pods, least-outstanding front
end".  The ClusterManager places the rings, wires the health monitors,
and returns a handle; open-loop users submit through the service's
stable virtual endpoint (``manager.endpoint(name)``), which keeps
resolving the live deployment through every re-placement or rescale.  A
`scale(4)` re-declares the replica count mid-run and reconciliation
converges onto it; `drain()` tears everything down.  This is the
paper's production shape (§2.3) in miniature: operators declare, the
management plane operates.

Run:  python examples/cluster_serving.py
"""

from repro.cluster import ClusterManager
from repro.fabric import Datacenter, TorusTopology
from repro.ranking.engine import ScoringEngine
from repro.ranking.models import ModelLibrary
from repro.ranking.pipeline import ranking_spec
from repro.sim import Engine
from repro.sim.units import SEC, US
from repro.workloads import BurstyArrivals, OpenLoopInjector, PoissonArrivals
from repro.workloads.traces import TraceGenerator


def print_status(handle) -> None:
    status = handle.status()
    print(
        f"  {status.service}: {status.ready_replicas}/{status.desired_replicas} "
        f"replicas ready, {status.capacity.occupied_rings}/"
        f"{status.capacity.total_rings} rings occupied "
        f"({status.capacity.utilization:.0%})"
    )
    for ring in status.rings:
        print(
            f"    {ring.name}: health {ring.health:.2f}, "
            f"{ring.completed} completed"
        )


def main() -> None:
    print("Building a 2-pod datacenter (2x8 torus per pod = 2 rings each)...")
    engine = Engine(seed=11)
    manager = ClusterManager(
        Datacenter(engine, num_pods=2, topology=TorusTopology(width=2, height=8))
    )

    print("Declaring: 3 ranking replicas, spread placement, "
          "least-outstanding front end...")
    library = ModelLibrary.default(scale=0.1)
    scoring_engine = ScoringEngine(library)
    handle = manager.apply(
        ranking_spec(
            scoring_engine,
            replicas=3,
            balancing="least_outstanding",
        )
    )
    endpoint = manager.endpoint("bing-ranking")
    print_status(handle)

    generator = TraceGenerator(seed=42)
    pool = [generator.request() for _ in range(48)]
    for request in pool:  # pre-compute functional scores
        scoring_engine.score(request.document, library[request.document.model_id])

    print("\nPhase 1: steady Poisson load, 60 K docs/s offered...")
    steady = OpenLoopInjector(
        engine,
        endpoint,
        PoissonArrivals(60_000),
        pool,
        max_queue_depth=256,
        seed_tag="steady",
    )
    started = engine.now
    stats = engine.run_until(steady.run(900))
    window = engine.now - started
    print(
        f"  {stats.completed} scored at {stats.completed * SEC / window:,.0f}/s, "
        f"p50 {stats.stats().p50 / US:.0f} us, p99 {stats.stats().p99 / US:.0f} us, "
        f"{stats.rejected} shed"
    )

    print("\nScaling the declaration to 4 replicas...")
    handle.scale(4)
    print_status(handle)

    print("\nPhase 2: bursty on/off load, 40 K base / 600 K burst docs/s...")
    bursty = OpenLoopInjector(
        engine,
        endpoint,
        BurstyArrivals(
            base_rate_per_s=40_000,
            burst_rate_per_s=600_000,
            period_s=0.01,
        ),
        pool,
        max_queue_depth=128,
        seed_tag="bursty",
    )
    stats = engine.run_until(bursty.run(1_200))
    print(
        f"  {stats.offered} offered, {stats.admitted} admitted "
        f"({stats.admission_fraction:.0%}), {stats.rejected} shed by "
        f"queue-depth admission control"
    )
    print(
        f"  completed p99 {stats.stats().p99 / US:.0f} us "
        f"(backpressure keeps the admitted tail bounded)"
    )

    print("\nDraining the service...")
    freed = manager.drain(handle)
    report = manager.scheduler.capacity_report()
    print(
        f"  {len(freed)} rings returned to the pool; "
        f"{report.occupied_rings}/{report.total_rings} occupied"
    )
    print("Done.")


if __name__ == "__main__":
    main()
