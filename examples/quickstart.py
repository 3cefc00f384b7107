#!/usr/bin/env python
"""Quickstart: deploy the Catapult ranking service and score documents.

Builds a single pod, declares the eight-FPGA Bing ranking pipeline to
the cluster control plane (which places it on one torus ring), injects
a handful of {document, query} requests from a neighbouring server, and
verifies the scores are bit-identical to the pure-software ranker — the
paper's core functional claim.

Run:  python examples/quickstart.py
"""

from repro.cluster import ClusterManager
from repro.fabric import Datacenter, TorusTopology
from repro.ranking.engine import ScoringEngine
from repro.ranking.models import ModelLibrary
from repro.ranking.pipeline import ranking_spec
from repro.ranking.software_ranker import SoftwareRanker
from repro.sim import Engine
from repro.sim.units import US
from repro.workloads import ClosedLoop, OpenLoopInjector, TraceGenerator


def main() -> None:
    print("Building a pod with a 2x8 torus of FPGA-equipped servers...")
    engine = Engine(seed=7)
    manager = ClusterManager(
        Datacenter(engine, num_pods=1, topology=TorusTopology(width=2, height=8))
    )
    pod = manager.datacenter.pod(0)

    print("Deploying the ranking service to ring 0 (FE, FFE0, FFE1,")
    print("Compress, Score0-2 + spare); Mapping Manager configures all")
    print("FPGAs, then releases RX-Halt...")
    library = ModelLibrary.default(scale=0.1)
    scoring_engine = ScoringEngine(library)
    ring = manager.apply(ranking_spec(scoring_engine)).deployments[0]
    print(f"  roles -> nodes: {ring.assignment.role_to_node}")
    print(f"  spare at: {ring.assignment.spare_nodes}")

    print("\nScoring 5 documents through the hardware pipeline...")
    generator = TraceGenerator(seed=99)
    pool = [generator.request() for _ in range(5)]
    # Two closed-loop threads on a neighbouring server, three requests each.
    threads = ClosedLoop(pod.server_at((1, 2)), threads=2)
    stats = engine.run_until(OpenLoopInjector(engine, ring, threads, pool).run(6))
    mean_us = sum(stats.latencies_ns) / len(stats.latencies_ns) / US
    print(f"  {stats.completed} responses, mean latency {mean_us:.1f} us")

    print("\nVerifying FPGA scores == software scores (bit-identical)...")
    software = SoftwareRanker(pod.server_at((1, 5)), scoring_engine)
    for request in pool:
        model = library[request.document.model_id]
        hw_score = scoring_engine.score(request.document, model)

        def score(request=request):
            result = yield from software.score_request(request)
            return result

        proc = engine.process(score())
        engine.run_until(proc)
        sw_score, _lat = proc.value
        marker = "OK" if sw_score == hw_score else "MISMATCH"
        print(f"  doc {request.document.doc_id:3d}: score {hw_score:+.4f}  [{marker}]")
        assert sw_score == hw_score

    print("\nHealth check on the ring:")
    report = engine.run_until(
        manager.health_monitor(0).investigate(pod.topology.ring(0))
    )
    print(f"  {len(report.diagnoses)} machines investigated, "
          f"{len(report.failed_machines)} failures")
    print("Done.")


if __name__ == "__main__":
    main()
