#!/usr/bin/env python
"""The headline experiment in miniature: FPGA ranking vs software.

Runs the §5 production comparison on one ring: all eight ring servers
inject Poisson traffic into the shared hardware pipeline while a
software-only server handles the same per-server rate, then prints the
latency distributions side by side — the Figure 14/15 story.

Run:  python examples/ranking_service.py
"""

import sys

sys.path.insert(0, "benchmarks")  # reuse the benchmark harness

from bench_harness import RATE_ONE_PER_S, build_ring
from repro.analysis import format_table
from repro.ranking.software_ranker import SoftwareRanker
from repro.sim.units import MS
from repro.workloads import OpenLoopInjector, PoissonArrivals


def main() -> None:
    rate = 1.0  # the paper's normalized production injection rate
    samples = 800
    per_server = rate * RATE_ONE_PER_S

    print(f"Injection rate {rate:.1f} ({per_server:.0f} docs/s/server), "
          f"{samples} samples per system...")

    print("\n[1/2] FPGA-accelerated ranking (8 servers sharing one ring)...")
    ring = build_ring(seed=101)
    injector = OpenLoopInjector(
        ring.engine,
        ring.endpoint,
        PoissonArrivals(8 * per_server),
        ring.pool,
        seed_tag="fpga",
    )
    ring.engine.run_until(injector.run(samples))
    fpga = injector.stats.stats()

    print("[2/2] software-only ranking (12-core server)...")
    sw = build_ring(seed=102)
    ranker = SoftwareRanker(sw.pod.server_at((1, 3)), sw.scoring_engine)
    injector = OpenLoopInjector(
        sw.engine, ranker, PoissonArrivals(per_server), sw.pool, seed_tag="software"
    )
    sw.engine.run_until(injector.run(samples))
    software = injector.stats.stats()

    rows = []
    for label, get in [
        ("average", lambda s: s.mean),
        ("95th pct", lambda s: s.p95),
        ("99th pct", lambda s: s.p99),
        ("99.9th pct", lambda s: s.p999),
    ]:
        f, s = get(fpga) / MS, get(software) / MS
        rows.append((label, f"{f:.2f}", f"{s:.2f}", f"{f / s:.2f}"))
    print()
    print(format_table(
        ["latency", "FPGA (ms)", "software (ms)", "ratio"],
        rows,
        title="FPGA vs software scoring latency (lower ratio = FPGA wins)",
    ))
    print(f"\nPaper anchor: at rate 1.0 the FPGA's 95th-percentile latency "
          f"is ~29% lower (ratio ~0.71). Measured ratio: "
          f"{fpga.p95 / software.p95:.2f}.")


if __name__ == "__main__":
    main()
