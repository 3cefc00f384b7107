#!/usr/bin/env python
"""Operating the cluster from a file: declare, diff, apply, edit, drain.

The same two-pod datacenter as ``cluster_serving.py``, but nobody calls
``apply(spec)`` from Python: the whole cluster lives in the committed
``examples/cluster.json`` — three Bing ranking replicas plus a one-ring
telemetry echo service — and every operation is a document edit pushed
through ``apply_file``:

1. dry-run the committed file against a fresh fabric (the diff shows
   every service as an add, nothing is touched),
2. apply it and watch both services converge,
3. apply it *again* — a no-op, the declarative fixed point,
4. under live open-loop traffic aimed at the stable
   ``manager.endpoint("bing-ranking")`` front door, apply an edited
   copy (ranking scaled 3 -> 4, telemetry-echo deleted) and watch the
   drain free the ring that the scale-up immediately reuses,
5. drain everything by applying an empty document.

Role factories and adapters are code, not data, so the file references
them by name and this script supplies the catalog: the same split the
paper's management plane makes between service declarations and the
bitstream images they instantiate.

Run:  python examples/cluster_from_file.py
      python examples/cluster_from_file.py --check   # parse + dry-run only
"""

import argparse
import json
import pathlib

from repro.cluster import (
    ClusterManager,
    apply_file,
    diff_cluster,
    echo_service,
    load_cluster,
)
from repro.fabric import Datacenter, TorusTopology
from repro.ranking.engine import ScoringEngine
from repro.ranking.models import ModelLibrary
from repro.ranking.pipeline import ranking_spec
from repro.sim import Engine
from repro.sim.units import US
from repro.workloads import OpenLoopInjector, PoissonArrivals
from repro.workloads.traces import TraceGenerator

CLUSTER_FILE = pathlib.Path(__file__).parent / "cluster.json"


def build_catalog():
    """Name -> code mappings the cluster file references.

    The ranking definition is synthesized once (bitstreams and scoring
    engine shared); the returned scoring engine and library warm the
    request pool exactly as in ``cluster_serving.py``.
    """
    library = ModelLibrary.default(scale=0.1)
    scoring_engine = ScoringEngine(library)
    spec = ranking_spec(scoring_engine)
    services = {
        spec.service.name: spec.service,
        "telemetry-echo": echo_service(name="telemetry-echo"),
    }
    adapters = {type(spec.adapter).__name__: spec.adapter}
    return services, adapters, scoring_engine, library


def print_cluster(manager) -> None:
    for name, status in manager.status().items():
        print(
            f"  {name}: {status.ready_replicas}/{status.desired_replicas} "
            f"replicas ready"
        )
    report = manager.scheduler.capacity_report()
    print(
        f"  pool: {report.occupied_rings}/{report.total_rings} rings occupied "
        f"({report.utilization:.0%})"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate the committed file (parse + dry-run) and exit",
    )
    args = parser.parse_args()

    print("Building a 2-pod datacenter (2x8 torus per pod = 2 rings each)...")
    engine = Engine(seed=11)
    manager = ClusterManager(
        Datacenter(engine, num_pods=2, topology=TorusTopology(width=2, height=8))
    )
    services, adapters, scoring_engine, library = build_catalog()

    print(f"\nDry run of {CLUSTER_FILE.name} against the fresh fabric:")
    desired = load_cluster(CLUSTER_FILE, services, adapters)
    print("  " + diff_cluster(manager, desired).summary().replace("\n", "\n  "))
    if args.check:
        print("Cluster file OK.")
        return

    print("\nApplying...")
    result = apply_file(manager, CLUSTER_FILE, services, adapters)
    print(f"  converged: {result.converged}")
    print_cluster(manager)

    print("\nApplying the same file again (the declarative fixed point):")
    again = apply_file(manager, CLUSTER_FILE, services, adapters)
    print("  " + again.diff.summary().replace("\n", "\n  "))

    generator = TraceGenerator(seed=42)
    pool = [generator.request() for _ in range(48)]
    for request in pool:  # pre-compute functional scores
        scoring_engine.score(
            request.document, library[request.document.model_id]
        )

    print(
        "\nOpen-loop traffic (60 K docs/s) through the stable "
        "endpoint('bing-ranking') front door..."
    )
    traffic = OpenLoopInjector(
        engine,
        manager.endpoint("bing-ranking"),
        PoissonArrivals(60_000),
        pool,
        max_queue_depth=256,
    )
    done = traffic.run(900)

    # Mid-run, push an *edited* copy of the document: ranking scaled
    # 3 -> 4, telemetry-echo deleted.  The drain frees its ring; the
    # scale-up reuses it in the same apply pass.  Traffic holds the
    # endpoint, not a handle, so nothing needs rewiring.
    edited = json.loads(CLUSTER_FILE.read_text())
    edited["services"] = [
        dict(entry, replicas=4)
        for entry in edited["services"]
        if entry["service"] == "bing-ranking"
    ]
    applied = False
    while not done.triggered:
        engine.run(until=engine.now + 1_000 * US)
        if not applied and traffic.stats.completed >= 300:
            applied = True
            print("\nApplying the edited copy (ranking 3 -> 4, echo removed):")
            result = apply_file(manager, edited, services, adapters)
            print("  " + result.diff.summary().replace("\n", "\n  "))
    stats = done.value
    print_cluster(manager)
    print(
        f"  traffic through the edit: {stats.completed} completed, "
        f"{stats.rejected} shed, p99 {stats.stats().p99 / US:.0f} us"
    )

    print("\nApplying an empty document (drain everything):")
    result = apply_file(manager, {"version": 1, "services": []}, services)
    print("  " + result.diff.summary().replace("\n", "\n  "))
    report = manager.scheduler.capacity_report()
    print(
        f"  pool: {report.occupied_rings}/{report.total_rings} rings occupied"
    )
    print("Done.")


if __name__ == "__main__":
    main()
