"""Figure 10: request latency vs. number of injecting CPU threads.

Paper: user-level latency (injection to response) grows with thread
count because of queuing ahead of the saturated pipeline.
"""

from bench_harness import build_ring
from repro.analysis import format_series
from repro.workloads import ClosedLoop, OpenLoopInjector

THREAD_COUNTS = [1, 2, 4, 8, 12, 16, 24, 32]


def run_experiment():
    latencies = {}
    for threads in THREAD_COUNTS:
        ring = build_ring(seed=10)
        injector = ring.pod.server_at(ring.deployment.head_node)
        # Paper methodology: pre-collected requests, no prep in the loop.
        population = ClosedLoop(injector, threads, include_prep=False)
        traffic = OpenLoopInjector(ring.engine, ring.deployment, population, ring.pool)
        stats = ring.engine.run_until(traffic.run(threads * 24))
        latencies[threads] = sum(stats.latencies_ns) / len(stats.latencies_ns)
    return latencies


def test_fig10_latency_vs_threads(benchmark, record):
    latencies = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    base = latencies[1]
    normalized = [round(latencies[t] / base, 2) for t in THREAD_COUNTS]
    table = format_series(
        "threads",
        {"mean latency (x 1-thread)": normalized},
        THREAD_COUNTS,
        title=(
            "Figure 10 — request latency vs #CPU threads injecting\n"
            "(paper: latency grows with threads due to queuing)"
        ),
    )
    record("fig10_thread_latency", table)

    assert latencies[32] > 2.5 * latencies[1]  # queuing growth
    assert latencies[32] > latencies[12] > latencies[1]  # monotone-ish
