"""Composite multi-ring replicas: chained latency, and surviving a
mid-run member-ring kill.

The paper's ranking accelerator spans one 8-FPGA ring, but §2.3
composes services from *groups* of FPGAs over the torus — larger
accelerators span multiple rings.  This benchmark measures that shape
end to end through the declarative control plane: ``ServiceSpec
(rings_per_replica=2)`` → gang placement → ``CompositeDeployment``
chains the member rings into one request path behind the front-end
``LoadBalancer``, driven by the ``OpenLoopInjector``.

Three configurations at the same offered load:

``1-ring``
    The baseline single-ring replica.

``2-ring chain``
    One replica spanning two rings on adjacent pods; per-request
    latency pays both stages (plus the inter-pod hop), throughput is
    bounded by one stage's capacity.

``2-ring chain + member kill``
    A mid-run ``kill_ring`` on one member exhausts its spares.  The
    whole replica fails as a unit (health = min over members), so the
    service is momentarily unservable: arrivals during the outage are
    SHED at the front door (``stats.rejected``), not crashed; the
    watchdog releases the gang (cordoning only the dead member's slot)
    and re-places it all-or-nothing on free rings; throughput recovers.

The service is a single-stage 20 µs echo per ring — the quantities
here (chain latency, outage shed, gang re-place time) are control-plane
and fabric timescales that do not depend on pipeline depth.  Set
``BENCH_SMOKE=1`` for the reduced CI configuration.
"""

import os

from repro.analysis import format_table, percentile
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

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

RATE_PER_S = 6_000.0
RUN_SECONDS = 1.8  # arrivals span: steady + outage + recovery + tail
FAIL_AT_NS = 0.25 * SEC  # deliberately not a watchdog-period multiple
WATCHDOG_PERIOD_NS = 0.15 * SEC
REQUEST_TIMEOUT_NS = 40 * MS
SAMPLE_NS = 50 * MS

CONFIGS = ["1-ring", "2-ring chain", "2-ring chain + member kill"]
if SMOKE:
    CONFIGS = ["1-ring", "2-ring chain + member kill"]


def run_one(config: str) -> dict:
    rings_per_replica = 1 if config == "1-ring" else 2
    kill_member = "kill" in config
    engine = Engine(seed=17 + rings_per_replica)
    datacenter = Datacenter(
        engine, num_pods=3, topology=TorusTopology(width=2, height=3)
    )
    manager = ClusterManager(datacenter)
    handle = manager.apply(
        ServiceSpec(
            service=echo_service(delay_ns=20_000.0),  # 20 us per stage
            replicas=1,
            rings_per_replica=rings_per_replica,
            request_timeout_ns=REQUEST_TIMEOUT_NS,
            health_period_ns=WATCHDOG_PERIOD_NS,
        )
    )
    injector = ClusterFailureInjector(datacenter)
    pool = [object() for _ in range(32)]
    arrivals = int(RATE_PER_S * RUN_SECONDS)
    traffic = OpenLoopInjector(
        engine,
        manager.endpoint(handle.name),
        PoissonArrivals(RATE_PER_S),
        pool,
        max_queue_depth=256,
        timeout_ns=REQUEST_TIMEOUT_NS,
    )
    started = engine.now
    done = traffic.run(arrivals)

    samples = [(0.0, 0)]  # (ns since start, cumulative completed)
    failed_at = None
    recovered_at = None
    while not done.triggered:
        engine.run(until=engine.now + SAMPLE_NS)
        elapsed = engine.now - started
        samples.append((elapsed, handle.balancer.completed))
        if kill_member and failed_at is None and elapsed >= FAIL_AT_NS:
            # Exhaust one member ring's spares: the whole composite
            # replica fails as a unit and the service goes dark until
            # the watchdog re-places the gang.
            injector.kill_ring(handle.deployments[0].members[1])
            failed_at = elapsed
        if (
            failed_at is not None
            and recovered_at is None
            and manager.scheduler.cordoned_slots
            and handle.status().ready_replicas == handle.spec.replicas
        ):
            # The sample grid notices the restored count up to one step
            # late; the pass that placed the replacement logged when.
            recovered_at = max(
                report.at_ns
                for report in manager.reconcile_reports
                if any(action.kind == "replace" for action in report.actions)
            ) - started
    stats = done.value

    arrival_end = arrivals / RATE_PER_S * SEC
    rates = [
        ((t0 + t1) / 2, (c1 - c0) * SEC / (t1 - t0))
        for (t0, c0), (t1, c1) in zip(samples, samples[1:], strict=False)
        if t1 > t0
    ]
    steady_end = failed_at if failed_at is not None else arrival_end
    steady = [r for t, r in rates if 2 * SAMPLE_NS <= t <= steady_end]
    steady_rate = sum(steady) / len(steady)
    outage_end = recovered_at if recovered_at is not None else arrival_end
    after = [r for t, r in rates if outage_end < t <= arrival_end - SAMPLE_NS]
    return {
        "config": config,
        "steady_per_s": steady_rate,
        "p50_us": percentile(stats.latencies_ns, 50) / US,
        "p99_us": percentile(stats.latencies_ns, 99) / US,
        "completed": stats.completed,
        "timeouts": stats.timeouts,
        "rejected": stats.rejected,
        "recovery_s": (
            (recovered_at - failed_at) / SEC if recovered_at is not None else None
        ),
        "recovered_per_s": (sum(after) / len(after)) if after else None,
        "ready": handle.status().ready_replicas,
        "cordoned": len(manager.scheduler.cordoned_slots),
    }


def run_experiment():
    return {config: run_one(config) for config in CONFIGS}


def test_composite_pipeline(benchmark, record):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = []
    for config in CONFIGS:
        r = results[config]
        rows.append(
            (
                config,
                f"{r['steady_per_s']:,.0f}",
                f"{r['p50_us']:.0f}",
                f"{r['p99_us']:.0f}",
                r["rejected"],
                f"{r['recovery_s']:.2f}" if r["recovery_s"] is not None else "-",
                f"{r['recovered_per_s']:,.0f}" if r["recovered_per_s"] else "-",
            )
        )
    table = format_table(
        [
            "replica shape",
            "steady thr (req/s)",
            "p50 (us)",
            "p99 (us)",
            "shed",
            "recovery (s)",
            "post-recovery thr",
        ],
        rows,
        title=(
            f"Composite 2-ring replicas vs a single ring — {RATE_PER_S:,.0f}"
            " req/s offered,\nmid-run member-ring kill re-placed as a gang"
            " (paper: services span groups\nof FPGAs over the torus, §2.3)"
        ),
    )
    record("composite_pipeline", table)

    single = results["1-ring"]
    assert single["rejected"] == 0 and single["timeouts"] == 0
    if "2-ring chain" in results:
        chained = results["2-ring chain"]
        # The chain pays both 20 us stages (plus hops and interrupt
        # wakes): clearly more than one stage, bounded by ~2x + overhead.
        assert chained["p50_us"] > 1.5 * single["p50_us"]
        assert chained["rejected"] == 0
        # Throughput still tracks the offered rate (capacity-bound by
        # one stage, and 6 K/s is far below a ring's saturation).
        assert chained["steady_per_s"] > 0.9 * single["steady_per_s"]

    killed = results["2-ring chain + member kill"]
    # The outage window shed load at the front door instead of crashing
    # the open-loop run...
    assert killed["rejected"] > 0
    assert killed["completed"] > 0
    # ...the gang was re-placed (only the dead member's slot cordoned)...
    assert killed["ready"] == 1
    assert killed["cordoned"] == 1
    assert killed["recovery_s"] is not None
    assert killed["recovery_s"] < 3.0
    # ...and throughput recovered to the steady rate.
    assert killed["recovered_per_s"] is not None
    assert killed["recovered_per_s"] > 0.8 * killed["steady_per_s"]
