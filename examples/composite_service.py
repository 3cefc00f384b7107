#!/usr/bin/env python
"""A composite service: one replica spanning two rings over the torus.

The paper's ranking accelerator occupies exactly one 8-FPGA ring, but
the fabric composes services from *groups* of FPGAs (§2.3) — a larger
accelerator spans several rings reached over the torus.  This example
declares `rings_per_replica=2`: the scheduler places each replica as an
all-or-nothing *gang* of rings on adjacent pods, and the control plane
wraps them in a `CompositeDeployment` that chains the member rings into
one request path (stage 0's response rides to stage 1's head node;
latency is end-to-end).

Then the §3.5 failure story, composite-style: killing ONE member ring
fails the WHOLE replica (health is the min over members), the open-loop
front door sheds arrivals during the outage instead of crashing, and
the watchdog re-places the gang — cordoning only the dead member's
slot — so throughput recovers without an operator.

Run:  python examples/composite_service.py
"""

from repro.cluster import (
    ClusterFailureInjector,
    ClusterManager,
    ServiceSpec,
    echo_service,
)
from repro.fabric import Datacenter, TorusTopology
from repro.sim import Engine
from repro.sim.units import MS, SEC, US
from repro.workloads import OpenLoopInjector, PoissonArrivals


def print_status(manager, handle) -> None:
    status = handle.status()
    print(
        f"  {status.service}: {status.ready_replicas}/"
        f"{status.desired_replicas} replicas ready; cordoned slots: "
        f"{manager.scheduler.cordoned_slots or 'none'}"
    )
    for ring in status.rings:
        chain = " -> ".join(
            f"pod{slot.pod_id}/ring{slot.ring_x}" for slot in ring.member_slots
        )
        print(f"    [{chain}]  health {ring.health:.2f}, {ring.completed} completed")


def main() -> None:
    print("Building a 3-pod datacenter (2 rings per pod)...")
    engine = Engine(seed=23)
    datacenter = Datacenter(
        engine, num_pods=3, topology=TorusTopology(width=2, height=3)
    )
    manager = ClusterManager(datacenter)

    print("Declaring: 1 replica spanning 2 rings (a gang on adjacent pods)...")
    handle = manager.apply(
        ServiceSpec(
            service=echo_service(delay_ns=20_000.0),
            replicas=1,
            rings_per_replica=2,
            request_timeout_ns=40 * MS,
            health_period_ns=0.15 * SEC,
        )
    )
    print_status(manager, handle)

    print("\nPhase 1: open-loop Poisson load, 5 K req/s through the chain...")
    pool = [object() for _ in range(16)]
    traffic = OpenLoopInjector(
        engine,
        manager.endpoint(handle.name),
        PoissonArrivals(5_000.0),
        pool,
        max_queue_depth=256,
        timeout_ns=40 * MS,
        seed_tag="composite",
    )
    done = traffic.run(9_000)  # arrivals span ~1.8 s
    engine.run(until=engine.now + 0.3 * SEC)
    stats = traffic.stats
    print(
        f"  {stats.completed} completed so far, p50 "
        f"{stats.stats().p50 / US:.0f} us end-to-end (both 20 us stages "
        "+ the inter-pod hop)"
    )

    victim = handle.deployments[0].members[1]
    print(f"\nPhase 2: killing member ring {victim.name} (exhausts its spares)...")
    ClusterFailureInjector(datacenter).kill_ring(victim)
    before_rejected = stats.rejected
    engine.run_until(done)
    print(
        f"  outage window: {stats.rejected - before_rejected} arrivals shed "
        "at the front door (no crash) while the watchdog re-placed the gang"
    )
    print_status(manager, handle)

    final = stats.stats()
    print(
        f"\nDone: {stats.completed}/{stats.offered} completed, "
        f"{stats.rejected} shed, {stats.timeouts} timed out; "
        f"p99 {final.p99 / US:.0f} us."
    )


if __name__ == "__main__":
    main()
