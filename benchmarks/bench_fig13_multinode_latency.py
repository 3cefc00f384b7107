"""Figure 13: per-node latency vs. number of injecting nodes.

Paper: as injectors increase 1..8, latency rises slightly due to
network contention; the Spare node sees slightly higher latency than
FE because it forwards its requests along a channel shared with
responses.
"""

from bench_harness import build_ring
from repro.analysis import format_series
from repro.sim import AllOf
from repro.workloads import ClosedLoop, OpenLoopInjector

NODE_COUNTS = [1, 2, 3, 4, 5, 6, 7, 8]


def run_experiment():
    fe_latency = {}
    spare_latency = {}
    for nodes in NODE_COUNTS:
        ring = build_ring(seed=13)
        ring_servers = ring.pod.ring(0)
        # Measure from the two ends: FE's server and the spare's server.
        fe_server = ring_servers[0]
        spare_server = ring_servers[7]
        injectors = [fe_server, spare_server] + [
            s for s in ring_servers[1:7]
        ][: max(0, nodes - 2)]
        injectors = injectors[:nodes] if nodes >= 2 else [fe_server]
        stats_by_server = {}
        done_events = []
        for server in injectors:
            traffic = OpenLoopInjector(
                ring.engine, ring.deployment, ClosedLoop(server, threads=1), ring.pool
            )
            done_events.append(traffic.run(24))
            stats_by_server[server.machine_id] = traffic.stats
        ring.engine.run_until(AllOf(ring.engine, done_events))

        def mean(server):
            latencies = stats_by_server[server.machine_id].latencies_ns
            return sum(latencies) / len(latencies)

        fe_latency[nodes] = mean(fe_server)
        spare_latency[nodes] = mean(spare_server) if nodes >= 2 else None
    return fe_latency, spare_latency


def test_fig13_node_latency_vs_injectors(benchmark, record):
    fe_latency, spare_latency = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    base = fe_latency[1]
    fe_series = [round(fe_latency[n] / base, 3) for n in NODE_COUNTS]
    spare_series = [
        round(spare_latency[n] / base, 3) if spare_latency[n] else "-"
        for n in NODE_COUNTS
    ]
    table = format_series(
        "#nodes injecting",
        {"FE node (x FE 1-node)": fe_series, "Spare node": spare_series},
        NODE_COUNTS,
        title=(
            "Figure 13 — per-node latency vs #injecting nodes (paper: slight\n"
            "rise with contention; Spare slightly above FE — its requests\n"
            "share a channel with responses)"
        ),
    )
    record("fig13_multinode_latency", table)

    # Slight latency growth with contention, bounded (paper: < 2x).
    assert fe_latency[8] < 2.5 * fe_latency[1]
    assert fe_latency[8] > fe_latency[1] * 0.99
    # The spare pays a small penalty over FE at full load.
    assert spare_latency[8] > fe_latency[8] * 0.99
