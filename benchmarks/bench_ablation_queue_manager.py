"""§4.3 ablation: Queue Manager policy — model batching vs FIFO.

Paper: "Model Reload ... is an order of magnitude slower than
processing a single document, so the queue manager's role in
minimizing model reloads among queries is crucial to achieving high
performance."  We compare the paper's per-model batched queues against
a strawman FIFO that reloads on every model change.
"""

from bench_harness import build_ring, warm_engine
from repro.analysis import format_table
from repro.workloads import ClosedLoop, OpenLoopInjector, TraceGenerator

REQUESTS = 96
MODEL_MIX = {0: 0.4, 1: 0.3, 2: 0.3}


def run_policy(policy: str):
    ring = build_ring(seed=20, qm_policy=policy)
    deployment = ring.deployment
    generator = TraceGenerator(seed=55, model_mix=MODEL_MIX)
    pool = [generator.request() for _ in range(32)]
    warm_engine(ring.scoring_engine, ring.library, pool)
    deployment.meter.start_measurement()
    population = ClosedLoop(ring.pod.server_at((1, 2)), threads=12, include_prep=False)
    stats = ring.engine.run_until(
        OpenLoopInjector(ring.engine, deployment, population, pool).run(REQUESTS)
    )
    qm = deployment.stage_role("fe").queue_manager
    return {
        "throughput": deployment.meter.per_second,
        "reloads": qm.reload_count,
        "completed": stats.completed,
        "mean_latency_us": sum(stats.latencies_ns) / len(stats.latencies_ns) / 1e3,
    }


def run_experiment():
    return {policy: run_policy(policy) for policy in ("batch", "fifo")}


def test_queue_manager_policy_ablation(benchmark, record):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    batch, fifo = results["batch"], results["fifo"]
    table = format_table(
        ["policy", "model reloads", "throughput (docs/s)", "mean latency (us)"],
        [
            ("batch (paper)", batch["reloads"], round(batch["throughput"]), round(batch["mean_latency_us"], 1)),
            ("fifo (strawman)", fifo["reloads"], round(fifo["throughput"]), round(fifo["mean_latency_us"], 1)),
        ],
        title=(
            "§4.3 ablation — Queue Manager policy under a 3-model query mix\n"
            "(reload ~100-250 us vs ~10 us/document: batching is crucial)"
        ),
    )
    record("ablation_queue_manager", table)

    assert batch["completed"] == fifo["completed"]
    assert fifo["reloads"] > 2 * batch["reloads"]
    assert batch["throughput"] > fifo["throughput"]
