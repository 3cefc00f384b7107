"""Cluster scaling: throughput and p99 vs declared replicas at fixed load.

The production claim (§2.3, §6): the service scales by deploying more
rings across more pods, with the front end spreading query load over
them.  At a fixed open-loop Poisson offered load well above one ring's
saturation point (~77 K docs/s), aggregate completed throughput must
grow with the replica count — admission control sheds the excess at one
ring, and four rings across two pods absorb the full offered load —
while per-ring p99 stays balanced under the least-outstanding policy.

Runs on the declarative control plane: each configuration is one
``ServiceSpec`` applied through the ``ClusterManager``; traffic drives
``manager.endpoint("bing-ranking")`` and the per-ring numbers come from
``handle.status()``.  Set ``BENCH_SMOKE=1`` for the reduced CI
configuration.
"""

import os

from repro.analysis import format_series, percentile
from repro.cluster import ClusterManager
from repro.fabric import Datacenter, TorusTopology
from repro.ranking.engine import ScoringEngine
from repro.ranking.models import ModelLibrary
from repro.ranking.pipeline import ranking_spec
from repro.sim import Engine
from repro.sim.units import SEC, US
from repro.workloads import OpenLoopInjector, PoissonArrivals
from repro.workloads.traces import TraceGenerator

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

RING_COUNTS = [1, 2, 4]
OFFERED_PER_S = 150_000.0  # ~2x one ring's saturation throughput
ARRIVALS = 1_200 if SMOKE else 3_000
MAX_QUEUE_DEPTH = 256


def run_one(rings: int) -> dict:
    engine = Engine(seed=21)
    manager = ClusterManager(
        Datacenter(engine, num_pods=2, topology=TorusTopology(width=2, height=8))
    )
    library = ModelLibrary.default(scale=0.1)
    scoring_engine = ScoringEngine(library)
    handle = manager.apply(
        ranking_spec(
            scoring_engine,
            replicas=rings,
            balancing="least_outstanding",
        )
    )
    generator = TraceGenerator(seed=77)
    pool = [generator.request() for _ in range(48)]
    for request in pool:  # pre-compute functional scores: pure-timing run
        scoring_engine.score(request.document, library[request.document.model_id])
    injector = OpenLoopInjector(
        engine,
        manager.endpoint("bing-ranking"),
        PoissonArrivals(OFFERED_PER_S),
        pool,
        max_queue_depth=MAX_QUEUE_DEPTH,
    )
    started = engine.now
    stats = engine.run_until(injector.run(ARRIVALS))
    window_ns = engine.now - started
    status = handle.status()
    return {
        "rings": rings,
        "ready": status.ready_replicas,
        "pods_used": len({ring.slot.pod_id for ring in status.rings}),
        "throughput_per_s": stats.completed * SEC / window_ns,
        "rejected": stats.rejected,
        "agg_p99_us": stats.stats().p99 / US,
        "ring_p99_us": {
            ring.name: ring.p99_us
            for ring in status.rings
            if ring.p99_us is not None
        },
    }


def run_experiment():
    return {rings: run_one(rings) for rings in RING_COUNTS}


def test_cluster_scaling(benchmark, record):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table = format_series(
        "#rings declared",
        {
            "aggregate throughput (docs/s)": [
                round(results[r]["throughput_per_s"]) for r in RING_COUNTS
            ],
            "rejected at admission": [results[r]["rejected"] for r in RING_COUNTS],
            "aggregate p99 (us)": [
                round(results[r]["agg_p99_us"]) for r in RING_COUNTS
            ],
            "worst ring p99 (us)": [
                round(max(results[r]["ring_p99_us"].values())) for r in RING_COUNTS
            ],
        },
        RING_COUNTS,
        title=(
            "Cluster scaling — open-loop Poisson at 150 K docs/s offered,\n"
            "least-outstanding balancing, replicas spread across 2 pods\n"
            "(paper: service capacity scales with deployed rings, §6)"
        ),
    )
    record("cluster_scaling", table)

    for r in RING_COUNTS:
        assert results[r]["ready"] == r  # every declared replica servable
    one, four = results[1], results[4]
    # One ring saturates: admission control must shed load...
    assert one["rejected"] > 0
    # ...and adding rings across >= 2 pods recovers the offered load.
    assert four["pods_used"] >= 2
    assert four["throughput_per_s"] > 1.5 * one["throughput_per_s"]
    assert four["agg_p99_us"] < one["agg_p99_us"]
    # Least-outstanding keeps the rings balanced: no ring's p99 above
    # 2x the median ring p99.
    ring_p99s = sorted(four["ring_p99_us"].values())
    median = percentile(ring_p99s, 50)
    assert max(ring_p99s) <= 2.0 * median
