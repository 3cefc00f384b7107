"""Figure 9: pipeline throughput vs. number of injecting CPU threads.

Paper: a single node (FE) injects with 1..32 threads; throughput rises
and saturates around 12 threads, where it is limited by the slowest
stage (FE).
"""

from bench_harness import build_ring
from repro.analysis import format_series
from repro.workloads import ClosedLoop, OpenLoopInjector

THREAD_COUNTS = [1, 2, 4, 8, 12, 16, 24, 32]


def run_experiment():
    throughputs = {}
    for threads in THREAD_COUNTS:
        ring = build_ring(seed=9)
        deployment = ring.deployment
        injector = ring.pod.server_at(deployment.head_node)  # inject at FE's node
        deployment.meter.start_measurement()
        # Paper methodology: "inject scoring requests collected from
        # real-world traces" — pre-encoded, no SSD/prep in the loop.
        population = ClosedLoop(injector, threads, include_prep=False)
        traffic = OpenLoopInjector(ring.engine, deployment, population, ring.pool)
        ring.engine.run_until(traffic.run(threads * 24))
        throughputs[threads] = deployment.meter.per_second
    return throughputs


def test_fig09_throughput_vs_threads(benchmark, record):
    throughputs = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    base = throughputs[1]
    normalized = [round(throughputs[t] / base, 2) for t in THREAD_COUNTS]
    table = format_series(
        "threads",
        {"throughput (x 1-thread)": normalized},
        THREAD_COUNTS,
        title=(
            "Figure 9 — pipeline throughput vs #CPU threads injecting\n"
            "(paper: saturation at ~12 threads, limited by FE)"
        ),
    )
    record("fig09_thread_scaling", table)

    # Rising then flat: 12 threads much better than 1; 32 barely
    # better than 12 (saturated).
    assert throughputs[12] > 3.0 * throughputs[1]
    assert throughputs[32] < 1.35 * throughputs[12]
    assert throughputs[2] > 1.5 * throughputs[1]
