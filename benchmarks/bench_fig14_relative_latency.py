"""Figure 14: FPGA/software latency ratio vs. injection rate.

Paper: for production-representative injection rates, the FPGA ranker
achieves lower average and tail latencies than software, and the
advantage grows with load — software latency variability rises with
memory-hierarchy contention while the FPGA stays stable.  At rate 1.0
the FPGA's 95th-percentile latency is ~29 % lower (ratio ~0.71).
"""

from bench_harness import RATE_ONE_PER_S, build_ring
from repro.analysis import format_series
from repro.ranking.software_ranker import SoftwareRanker
from repro.workloads import OpenLoopInjector, PoissonArrivals

RATES = [0.5, 1.0, 1.5, 2.0]
SAMPLES_PER_POINT = 1_600


def run_experiment():
    ratios = {"avg": [], "p95": [], "p99": [], "p999": []}
    for rate in RATES:
        per_server = rate * RATE_ONE_PER_S
        # FPGA: all eight ring servers inject (production operation):
        # the ring's submit() round-robins the aggregate Poisson stream
        # arriving at the service endpoint.
        fpga = build_ring(seed=14)
        fpga_loop = OpenLoopInjector(
            fpga.engine,
            fpga.endpoint,
            PoissonArrivals(8 * per_server),
            fpga.pool,
            seed_tag=f"f{rate}",
        )
        fpga.engine.run_until(fpga_loop.run(SAMPLES_PER_POINT))
        # Software: one server at the same per-server rate.
        sw = build_ring(seed=15)
        ranker = SoftwareRanker(sw.pod.server_at((1, 3)), sw.scoring_engine)
        sw_loop = OpenLoopInjector(
            sw.engine, ranker, PoissonArrivals(per_server), sw.pool, seed_tag=f"s{rate}"
        )
        sw.engine.run_until(sw_loop.run(SAMPLES_PER_POINT))
        fpga, software = fpga_loop.stats.stats(), sw_loop.stats.stats()
        ratios["avg"].append(fpga.mean / software.mean)
        ratios["p95"].append(fpga.p95 / software.p95)
        ratios["p99"].append(fpga.p99 / software.p99)
        ratios["p999"].append(fpga.p999 / software.p999)
    return ratios


def test_fig14_fpga_vs_software_latency(benchmark, record):
    ratios = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table = format_series(
        "injection rate",
        {
            "avg (FPGA/SW)": [round(v, 3) for v in ratios["avg"]],
            "95%": [round(v, 3) for v in ratios["p95"]],
            "99%": [round(v, 3) for v in ratios["p99"]],
            "99.9%": [round(v, 3) for v in ratios["p999"]],
        },
        RATES,
        title=(
            "Figure 14 — relative latency (FPGA/software) vs injection rate\n"
            "(paper: all ratios < 1 and falling with load; ~0.71 at the 95th\n"
            "percentile for rate 1.0)"
        ),
    )
    record("fig14_relative_latency", table)

    index_rate_1 = RATES.index(1.0)
    # FPGA is faster everywhere.
    assert all(v < 1.0 for series in ratios.values() for v in series)
    # The paper reports a 29 % p95 reduction at rate 1.0 (ratio 0.71);
    # our software baseline carries less non-scoring overhead than
    # Bing's production stack, so the measured ratio is deeper — the
    # claim we hold is FPGA-faster with a big margin (see EXPERIMENTS.md).
    assert ratios["p95"][index_rate_1] <= 0.85
    # The advantage grows (ratio falls) with injection rate at the tail.
    assert ratios["p99"][-1] < ratios["p99"][0]
