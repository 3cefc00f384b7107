"""§3.4-§3.5 failure handling: recovery time and the spare ablation.

Paper: the failure handling service "quickly reconfigures the fabric
upon errors or machine failures"; the spare FPGA lets the Service
Manager rotate the ring upon a machine failure and keep the ranking
pipeline alive.  We measure time-to-recovery after an FPGA hardware
fault, with the spare (ring rotation) vs. without (service must wait
for manual replacement).
"""

from bench_harness import build_ring
from repro.analysis import format_table
from repro.cluster import ClusterFailureInjector
from repro.services import FailureKind
from repro.sim.units import SEC
from repro.workloads import ClosedLoop, OpenLoopInjector


def run_experiment():
    # --- with spare: rotate the ring ----------------------------------
    ring = build_ring(seed=18)
    eng, deployment = ring.engine, ring.deployment
    victim = deployment.assignment.node_of("ffe1")
    fault_time = eng.now
    ClusterFailureInjector(ring.manager.datacenter).inject(
        FailureKind.FPGA_HARDWARE_FAULT, ring.pod.pod_id, victim
    )
    eng.run_until(ring.manager.health_monitor(0).investigate([victim]))
    rotate_recovery_ns = eng.now - fault_time
    # Service works again end to end.
    population = ClosedLoop(ring.pod.server_at((1, 1)), threads=1)
    stats = eng.run_until(
        OpenLoopInjector(eng, deployment, population, ring.pool[:2]).run(2)
    )
    rotated_ok = stats.completed == 2 and stats.timeouts == 0

    # --- without spare: full ring already consumed --------------------
    ring2 = build_ring(seed=19)
    assignment = ring2.deployment.assignment
    for node in list(assignment.spare_nodes):
        assignment.exclude(node)  # spare already burned
    victim2 = assignment.node_of("score1")
    ClusterFailureInjector(ring2.manager.datacenter).inject(
        FailureKind.FPGA_HARDWARE_FAULT, ring2.pod.pod_id, victim2
    )
    ring2.engine.run_until(ring2.manager.health_monitor(0).investigate([victim2]))
    # With no spare left the Mapping Manager cannot rotate: it marks
    # the assignment unservable and leaves it for reconciliation (the
    # control plane would release the ring and re-place the replica;
    # here, with a single ring, only manual service restores capacity).
    capacity_exhausted = not assignment.servable
    # Manual service path: replace hardware (~30 min) then redeploy.
    manual_ns = 30 * 60 * SEC + rotate_recovery_ns
    return {
        "rotate_recovery_ns": rotate_recovery_ns,
        "rotated_ok": rotated_ok,
        "capacity_exhausted": capacity_exhausted,
        "manual_ns": manual_ns,
    }


def test_failure_recovery_with_and_without_spare(benchmark, record):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table = format_table(
        ["scenario", "time to recovery", "pipeline survives"],
        [
            (
                "FPGA fault, spare available (ring rotation)",
                f"{result['rotate_recovery_ns'] / SEC:.1f} s",
                "yes" if result["rotated_ok"] else "NO",
            ),
            (
                "FPGA fault, no spare left",
                "manual service "
                f"(~{result['manual_ns'] / SEC / 60:.0f} min)",
                "no - capacity exhausted"
                if result["capacity_exhausted"]
                else "unexpected",
            ),
        ],
        title=(
            "§3.5 — failure recovery: the spare enables seconds-scale ring\n"
            "rotation instead of manual service"
        ),
    )
    record("failure_recovery", table)

    assert result["rotated_ok"]
    # Rotation is reconfiguration-dominated: seconds, not minutes.
    assert result["rotate_recovery_ns"] < 30 * SEC
    assert result["capacity_exhausted"]
    assert result["manual_ns"] > 100 * result["rotate_recovery_ns"]
