"""Figure 12: aggregate throughput vs. number of injecting nodes.

Paper: with one thread per node, aggregate pipeline throughput grows
almost linearly with the number of injecting servers until the eight-
node pipeline saturates at FE's processing rate.
"""

from bench_harness import build_ring
from repro.analysis import format_series
from repro.sim import AllOf
from repro.workloads import ClosedLoop, OpenLoopInjector

NODE_COUNTS = [1, 2, 3, 4, 5, 6, 7, 8]


def run_experiment():
    throughputs = {}
    for nodes in NODE_COUNTS:
        ring = build_ring(seed=12)
        deployment = ring.deployment
        deployment.meter.start_measurement()
        injections = [
            OpenLoopInjector(
                ring.engine, deployment, ClosedLoop(server, threads=1), ring.pool
            ).run(24)
            for server in ring.pod.ring(0)[:nodes]
        ]
        ring.engine.run_until(AllOf(ring.engine, injections))
        throughputs[nodes] = deployment.meter.per_second
    return throughputs


def test_fig12_aggregate_throughput_vs_nodes(benchmark, record):
    throughputs = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    base = throughputs[1]
    normalized = [round(throughputs[n] / base, 2) for n in NODE_COUNTS]
    table = format_series(
        "#nodes injecting",
        {"aggregate throughput (x 1 node)": normalized},
        NODE_COUNTS,
        title=(
            "Figure 12 — aggregate throughput vs #injecting nodes, one\n"
            "thread each (paper: almost linear up to 8-node saturation)"
        ),
    )
    record("fig12_multinode_throughput", table)

    assert throughputs[4] > 3.0 * base  # near-linear early scaling
    assert throughputs[8] > 5.0 * base
    assert all(
        throughputs[b] >= throughputs[a] * 0.98
        for a, b in zip(NODE_COUNTS, NODE_COUNTS[1:], strict=False)
    )
