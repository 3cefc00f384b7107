#!/usr/bin/env python
"""Failure handling, closed-loop: the control plane keeps a declared
service serving through hardware failures (§3.4–§3.5).

Declares two ranking replicas behind a weighted-health front end, then
injects failures of increasing severity while the ClusterManager's
watchdog runs:

1. an FPGA hardware fault on one ring — the Health Monitor's error
   vector triggers a Mapping Manager ring rotation onto the spare, the
   ring's health weight drops, and the front end shifts load;
2. a cable-assembly failure that kills the same ring outright —
   reconciliation releases it, cordons the slot for manual service,
   and re-places the replica on a fresh ring.

No code here touches HealthMonitor, MappingManager, or LoadBalancer:
the spec declares, the watchdog closes the loop.

Run:  python examples/failure_recovery.py
"""

from repro.cluster import ClusterFailureInjector, ClusterManager
from repro.fabric import Datacenter, TorusTopology
from repro.ranking.engine import ScoringEngine
from repro.ranking.models import ModelLibrary
from repro.ranking.pipeline import ranking_spec
from repro.services import FailureKind
from repro.sim import Engine
from repro.sim.units import SEC
from repro.workloads.traces import TraceGenerator


def show(handle) -> None:
    status = handle.status()
    print(f"  {status.ready_replicas}/{status.desired_replicas} replicas ready")
    for ring in status.rings:
        print(f"    {ring.name}: health {ring.health:.2f} @ {ring.slot}")


def main() -> None:
    engine = Engine(seed=3)
    datacenter = Datacenter(
        engine, num_pods=2, topology=TorusTopology(width=2, height=8)
    )
    manager = ClusterManager(datacenter)
    print("Declaring 2 ranking replicas, weighted-health front end,")
    print("2 s health watchdog...")
    library = ModelLibrary.default(scale=0.1)
    scoring_engine = ScoringEngine(library)
    handle = manager.apply(
        ranking_spec(
            scoring_engine,
            replicas=2,
            balancing="weighted_health",
            health_period_ns=2 * SEC,
        )
    )
    show(handle)

    victim_ring = handle.deployments[0]
    victim_slot = manager.scheduler.slot_of(victim_ring)
    injector = ClusterFailureInjector(datacenter)

    print("\n1. FPGA hardware fault at the ffe1 node of replica 0...")
    victim = injector.inject_role(
        victim_ring, FailureKind.FPGA_HARDWARE_FAULT, role_name="ffe1"
    )
    engine.run(until=engine.now + 6 * SEC)  # watchdog sweeps
    print("  watchdog swept and the Mapping Manager relocated the role")
    assert victim in victim_ring.assignment.excluded, "ring must rotate"
    print(f"  {victim} mapped out; ring rotated onto its spare")
    show(handle)
    print("  (weighted-health now steers proportionally less load here)")

    print("\n2. Cable assembly failure kills the same ring outright...")
    injector.inject_role(victim_ring, FailureKind.CABLE_ASSEMBLY_FAILURE)
    engine.run(until=engine.now + 8 * SEC)
    status = handle.status()
    assert status.ready_replicas == 2, "reconciliation must restore replicas"
    assert victim_slot in manager.scheduler.cordoned_slots
    print(f"  {victim_slot} released and cordoned for manual service;")
    print("  replacement replica placed on a fresh ring:")
    show(handle)

    print("\n3. Traffic still completes on the reconciled service:")
    generator = TraceGenerator(seed=17)
    pool = [generator.request() for _ in range(6)]
    for request in pool:
        scoring_engine.score(request.document, library[request.document.model_id])
    completed = []
    endpoint = manager.endpoint("bing-ranking")

    def driver():
        for request in pool:
            response = yield from endpoint.submit(request)
            completed.append(response)

    engine.process(driver())
    engine.run()
    scored = [r for r in completed if r is not None]
    print(f"  {len(scored)}/{len(pool)} requests scored after recovery")
    assert len(scored) == len(pool)

    print("\nDone: the declared service survived a component failure and")
    print("a whole-ring failure with no operator in the loop.")


if __name__ == "__main__":
    main()
