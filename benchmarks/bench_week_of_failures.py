"""A week of failures, zero operator calls: the repair loop end-to-end.

The paper's production fleet ran for months with hardware failing at a
trickle (§2.3: 7 bad cards at deployment; §3.5: map out, raise a
service ticket, swap, return to the pool).  Before the repair loop
existed here, every cordoned slot was cordoned *forever* unless an
operator called ``uncordon()`` — long experiments bled capacity
monotonically.  This benchmark runs a compressed "week" under open-loop
traffic with one ring killed per "day" and a lognormal repair-time
distribution, and shows the loop closing by itself: each failure dips
pool capacity (free + occupied rings), each ticket expiry heals it back
to >= 95% of initial, and the declared replica count is restored after
every repair — with zero manual ``uncordon()`` calls anywhere.

Midweek, the service is also *upgraded in place*:
``handle.upgrade(new_spec)`` rolls every replica onto a new
ServiceDefinition one ring at a time — the paper's headline
reconfigurability story (same machines, new accelerator) — while
offered traffic keeps being admitted and completed throughout (no
total-outage window).

Every capacity/throughput figure below comes from the *exported*
metrics series, not from in-process counters: a
:class:`~repro.cluster.metrics.MetricsRegistry` samples the cluster on
a simulated-time period into ``results/week_of_failures_metrics.jsonl``
(one canonical JSON object per line — byte-identical across same-seed
runs), and the analysis re-reads that file the way an external
dashboard would.  Traffic submits through the service's stable virtual
endpoint (``manager.endpoint(...)``), which rides out every
re-placement and the midweek upgrade without rewiring.

Time is compressed: one "day" is 1.5 simulated seconds (the quantities
under test — cordon, ticket timer, reconfigure ~1 s, re-place — do not
change with the day length, only the event count does).  Set
``BENCH_SMOKE=1`` (or pass ``--smoke``) for the reduced CI
configuration.
"""

import json
import os
import pathlib
import time

from repro.analysis import format_table
from repro.cluster import (
    ClusterFailureInjector,
    ClusterManager,
    MetricsRegistry,
    RepairPolicy,
    ServiceSpec,
    echo_service,
    read_series,
)
from repro.fabric import Datacenter, TorusTopology
from repro.sim import Engine, ScheduledTransients
from repro.sim.units import MS, SEC
from repro.workloads import OpenLoopInjector, PoissonArrivals

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

DAY_NS = 1.5 * SEC  # one compressed "day"
DAYS = 3 if SMOKE else 7
RATE_PER_S = 1_500.0 if SMOKE else 3_000.0
REPLICAS = 3
SERVICE = "echo-service"
# Kill one ring per day, early in the day, so its repair (mean 0.5
# "days", lognormal) lands within the same day or the next.
FAIL_AT_FRACTION = 0.15
REPAIR = RepairPolicy(distribution="lognormal", mean_ns=0.5 * DAY_NS, sigma=0.5)
UPGRADE_DAY = 1 if SMOKE else 3  # roll the new image midweek
WATCHDOG_PERIOD_NS = 0.15 * SEC
REQUEST_TIMEOUT_NS = 40 * MS
SAMPLE_NS = 50 * MS
METRICS_PATH = pathlib.Path(__file__).parent / "results" / (
    "week_of_failures_metrics.jsonl"
)
# The fluid run exports its own series (the discrete series above is a
# committed artifact) and the mode comparison lands next to it.
FLUID_METRICS_PATH = METRICS_PATH.with_name("week_of_failures_metrics_fluid.jsonl")
FLUID_RESULT_PATH = METRICS_PATH.with_name("week_of_failures_fluid.json")
# Host-side figures of the fluid week (wall time, engine events) move
# with the machine or with any event cut while every simulated figure
# stays put, so they go to an untracked sidecar, not the committed table.
HOST_FIELDS = ("wall_s", "events_dispatched")
FLUID_HOST_PATH = METRICS_PATH.with_name("week_of_failures_fluid.host.txt")


def capacity_fraction_of(capacity: dict) -> float:
    """In-pool share of the ring fleet, from one exported snapshot."""
    return (
        capacity["free_rings"] + capacity["occupied_rings"]
    ) / capacity["total_rings"]


def run_week(fluid: bool = False) -> dict:
    engine = Engine(seed=2014, fluid=fluid)
    datacenter = Datacenter(
        engine, num_pods=2, topology=TorusTopology(width=3, height=3)
    )
    manager = ClusterManager(datacenter, repair_policy=REPAIR)
    handle = manager.apply(
        ServiceSpec(
            service=echo_service(),
            replicas=REPLICAS,
            balancing="weighted_health",
            request_timeout_ns=REQUEST_TIMEOUT_NS,
            health_period_ns=WATCHDOG_PERIOD_NS,
        )
    )
    injector = ClusterFailureInjector(datacenter)
    pool = [object() for _ in range(32)]
    # The week starts once the service is up (apply() spends ~1 s of
    # simulated time per replica on ring reconfiguration).
    start_ns = engine.now
    horizon_ns = DAYS * DAY_NS
    arrivals = int(RATE_PER_S * horizon_ns / SEC)
    if engine.fluid is not None:
        # The driver below mutates the cluster *between* run(until=...)
        # chunks — kills at day thresholds, the midweek upgrade.  The
        # engine's run deadline already stops every fluid window at the
        # chunk edge; registering the planned instants as well gives the
        # coordinator the guard lead, so the simulation is back to
        # exact discrete mode before each mutation, not just paused.
        planned = ScheduledTransients(
            [start_ns + (day + FAIL_AT_FRACTION) * DAY_NS for day in range(DAYS - 2)]
            + [start_ns + (UPGRADE_DAY + 0.5) * DAY_NS]
        )
        engine.fluid.register(planned)
    # Traffic holds the stable VIP endpoint, never the handle: the
    # front door survives each day's re-placement and the midweek
    # rolling upgrade with no rewiring in the workload.
    traffic = OpenLoopInjector(
        engine,
        manager.endpoint(SERVICE),
        PoissonArrivals(RATE_PER_S),
        pool,
        max_queue_depth=256,
        timeout_ns=REQUEST_TIMEOUT_NS,
    )
    # Observability is *exported*: the registry samples every SAMPLE_NS
    # of simulated time into the committed JSON-lines series that the
    # analysis below (and any dashboard) reads back.
    metrics_path = FLUID_METRICS_PATH if fluid else METRICS_PATH
    metrics = MetricsRegistry(manager, path=metrics_path)
    metrics.attach_workload(SERVICE, traffic)
    metrics.start(SAMPLE_NS)
    done = traffic.run(arrivals)
    wall_start = time.perf_counter()  # simlint: allow-wall-clock -- harness timing

    initial_capacity = capacity_fraction_of(
        manager.scheduler.capacity_report().to_dict()
    )
    failures_injected = 0
    next_fail_day = 0
    upgrade_span = None
    new_service = echo_service(payload="scored-v2", delay_ns=15_000.0)
    while not done.triggered:
        engine.run(until=engine.now + SAMPLE_NS)
        elapsed = engine.now - start_ns
        # One ring killed per day, at the first sample past the day's
        # threshold; the last two days stay quiet so every ticket's
        # repair fits inside the measured horizon.
        if (
            next_fail_day < DAYS - 2
            and elapsed >= (next_fail_day + FAIL_AT_FRACTION) * DAY_NS
            and handle.deployments
        ):
            injector.kill_ring(handle.deployments[0])
            failures_injected += 1
            next_fail_day += 1
        if upgrade_span is None and elapsed >= (UPGRADE_DAY + 0.5) * DAY_NS:
            before = (engine.now, traffic.stats.admitted, traffic.stats.completed)
            report = handle.upgrade(
                ServiceSpec(
                    service=new_service,
                    replicas=REPLICAS,
                    balancing="weighted_health",
                    request_timeout_ns=REQUEST_TIMEOUT_NS,
                    health_period_ns=WATCHDOG_PERIOD_NS,
                )
            )
            upgrade_span = {
                "start_s": before[0] / SEC,
                "end_s": engine.now / SEC,
                "admitted": traffic.stats.admitted - before[1],
                "completed": traffic.stats.completed - before[2],
                "releases": sum(
                    1 for a in report.actions if a.kind == "upgrade_release"
                ),
                "places": sum(
                    1 for a in report.actions if a.kind == "upgrade_place"
                ),
            }
    wall_s = time.perf_counter() - wall_start  # simlint: allow-wall-clock -- harness timing
    stats = done.value
    # One last explicit snapshot at run end, so the series' final line
    # reflects the converged week-end state (the periodic sampler's
    # last tick can precede the final repair by up to one period).
    metrics.sample()
    metrics.stop()

    # Everything below reads the exported series from disk — the same
    # view an external dashboard gets, not in-process objects.
    series = read_series(metrics_path)
    samples = [
        (
            snap["t_ns"],
            capacity_fraction_of(snap["capacity"]),
            snap["capacity"]["open_tickets"],
            snap["services"][SERVICE]["workload"]["admitted"],
            snap["services"][SERVICE]["workload"]["completed"],
        )
        for snap in series
    ]
    tickets = manager.repairs.tickets
    # Capacity after each repair *window*: the first sample at or after
    # the ticket's close with no ticket open — back-to-back failures
    # can overlap repairs, so "after the window" means the pool is out
    # of the shop entirely, not just that one ticket closed.
    post_repair = []
    for ticket in tickets:
        if ticket.closed_ns is None:
            continue
        later = [
            c for t, c, open_count, _a, _co in samples
            if t >= ticket.closed_ns and open_count == 0
        ]
        if later:
            post_repair.append(later[0])
    return {
        "initial_capacity": initial_capacity,
        "samples": samples,
        "series": series,
        "stats": stats,
        "failures": failures_injected,
        "tickets": tickets,
        "post_repair": post_repair,
        "min_capacity": min(c for _t, c, _open, _a, _co in samples),
        "final_capacity": samples[-1][1],
        "upgrade": upgrade_span,
        "ready": series[-1]["services"][SERVICE]["ready_replicas"],
        "manager": manager,
        "handle": handle,
        "new_service": new_service,
        "wall_s": wall_s,
        "events_dispatched": engine.events_dispatched,
        "fluid_windows": engine.fluid.windows if engine.fluid else 0,
        "fluid_covered": engine.fluid.covered_arrivals if engine.fluid else 0,
    }


def run_experiment():
    return run_week()


def mode_figures(r: dict) -> dict:
    """The headline week figures for one mode, JSON-serializable."""
    stats = r["stats"]
    final = r["series"][-1]["services"][SERVICE]
    return {
        "wall_s": round(r["wall_s"], 3),
        "events_dispatched": r["events_dispatched"],
        "fluid_windows": r["fluid_windows"],
        "fluid_covered_arrivals": r["fluid_covered"],
        "offered": stats.offered,
        "admitted": stats.admitted,
        "completed": stats.completed,
        "rejected": stats.rejected,
        "failures": r["failures"],
        "tickets_repaired": r["manager"].repairs.repaired_count,
        "capacity_min": round(r["min_capacity"], 4),
        "capacity_final": round(r["final_capacity"], 4),
        "ready_replicas": r["ready"],
        "p99_us": (
            round(final["latency"]["p99"] / 1e3, 1) if final["latency"] else None
        ),
    }


def compare_modes(discrete: dict, fluid: dict) -> dict:
    """Wall-clock + figure deltas of the fluid week vs the discrete week.

    The fluid endpoint path is flow/sampler-based (admission assumed in
    steady state, sojourns drawn from the balancer's empirical
    reservoir), so figures are *close*, not bit-equal — the deltas
    quantify the approximation alongside the speedup.
    """
    d, f = mode_figures(discrete), mode_figures(fluid)

    def rel(key):
        base = d[key]
        if not base:
            return None
        return round((f[key] - base) / base, 4)

    return {
        "scenario": {
            "days": DAYS,
            "rate_per_s": RATE_PER_S,
            "smoke": SMOKE,
            "seed": 2014,
        },
        "discrete": d,
        "fluid": f,
        "deltas": {
            "speedup_wall": round(d["wall_s"] / f["wall_s"], 2)
            if f["wall_s"]
            else None,
            "events_ratio": round(
                d["events_dispatched"] / f["events_dispatched"], 2
            )
            if f["events_dispatched"]
            else None,
            "offered_rel": rel("offered"),
            "completed_rel": rel("completed"),
            "capacity_min_rel": rel("capacity_min"),
            "capacity_final_rel": rel("capacity_final"),
            "p99_rel": rel("p99_us") if d["p99_us"] and f["p99_us"] else None,
        },
    }


def test_week_of_failures_heals_without_operator(benchmark, record):
    r = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    stats = r["stats"]
    series = r["series"]
    closed = [t for t in r["tickets"] if not t.open]
    mean_repair_days = (
        sum((t.closed_ns - t.opened_ns) for t in closed) / len(closed) / DAY_NS
        if closed
        else 0.0
    )
    final = series[-1]["services"][SERVICE]
    rows = [
        ("days simulated", DAYS),
        ("rings (total pool)", series[-1]["capacity"]["total_rings"]),
        ("rings killed (1/day)", r["failures"]),
        ("tickets opened", len(r["tickets"])),
        ("tickets repaired", r["manager"].repairs.repaired_count),
        ("mean repair time (days)", f"{mean_repair_days:.2f}"),
        ("manual uncordon() calls", 0),
        ("capacity min", f"{r['min_capacity']:.0%}"),
        ("capacity after each repair", " ".join(f"{c:.0%}" for c in r["post_repair"])),
        ("capacity end of week", f"{r['final_capacity']:.0%}"),
        ("offered / admitted / completed",
         f"{final['workload']['offered']:,} / {final['workload']['admitted']:,} "
         f"/ {final['workload']['completed']:,}"),
        ("admission fraction",
         f"{final['workload']['admitted'] / final['workload']['offered']:.1%}"),
        ("service p99 (exported, us)",
         f"{final['latency']['p99'] / 1e3:.0f}" if final["latency"] else "n/a"),
        ("upgrade roll (replicas swapped)",
         f"{r['upgrade']['releases']} out + {r['upgrade']['places']} in, "
         f"{r['upgrade']['start_s']:.2f}s-{r['upgrade']['end_s']:.2f}s"),
        ("admitted during upgrade roll", f"{r['upgrade']['admitted']:,}"),
        ("completed during upgrade roll", f"{r['upgrade']['completed']:,}"),
        ("metrics series (snapshots)", f"{len(series)} -> {METRICS_PATH.name}"),
    ]
    table = format_table(
        ["quantity", "value"],
        rows,
        title=(
            "A week of failures, zero operator calls — service tickets with a\n"
            "lognormal repair distribution heal every capacity dip; a midweek\n"
            "rolling upgrade swaps all replicas under traffic (§3.5 repair loop);\n"
            "all figures read back from the exported JSON metrics series"
        ),
    )
    record("week_of_failures", table)

    # The loop closed by itself: every ticket opened by a cordon was
    # repaired inside the horizon, with zero manual uncordon calls.
    assert r["failures"] >= (1 if SMOKE else 5)
    assert len(r["tickets"]) == r["failures"]
    assert r["manager"].repairs.repaired_count == len(r["tickets"])
    assert r["manager"].scheduler.cordoned_slots == []
    # Capacity dipped on each failure and returned to >= 95% of initial
    # after each repair window — all read from the exported series.
    assert r["min_capacity"] < r["initial_capacity"]
    assert r["post_repair"]
    assert all(c >= 0.95 * r["initial_capacity"] for c in r["post_repair"])
    assert r["final_capacity"] >= 0.95 * r["initial_capacity"]
    # The declared replica count survived the week.
    assert r["ready"] == REPLICAS
    # The rolling upgrade swapped every replica onto the new definition
    # while traffic kept flowing: no total-outage window.
    assert all(
        d.service is r["new_service"] for d in r["handle"].deployments
    )
    assert r["upgrade"]["admitted"] > 0
    assert r["upgrade"]["completed"] > 0
    # Offered arrivals are fully accounted for across the whole week,
    # and the exported workload counters agree with the in-process ones.
    assert stats.offered == stats.admitted + stats.rejected
    assert stats.completed > 0.8 * stats.offered
    assert final["workload"] == stats.to_dict()


def test_week_of_failures_fluid_smoke(record):
    """The same week with fluid fast-forward on: the repair loop must
    still close by itself and the headline figures must stay close to
    the discrete run's (the endpoint path is sampler-based, so close,
    not bit-equal)."""
    r = run_week(fluid=True)
    stats = r["stats"]
    figures = mode_figures(r)
    host = {key: figures.pop(key) for key in HOST_FIELDS}
    record(
        "week_of_failures_fluid",
        "\n".join(f"{k} = {v}" for k, v in sorted(figures.items())),
    )
    FLUID_HOST_PATH.write_text("".join(f"{k} = {v}\n" for k, v in host.items()))
    # The repair loop still closes with the analytic core engaged.
    assert r["manager"].repairs.repaired_count == len(r["tickets"])
    assert r["manager"].scheduler.cordoned_slots == []
    assert r["final_capacity"] >= 0.95 * r["initial_capacity"]
    assert r["ready"] == REPLICAS
    assert stats.offered == stats.admitted + stats.rejected
    assert stats.completed > 0.8 * stats.offered
    # Fluid actually engaged: analytic windows covered real traffic.
    assert r["fluid_windows"] > 0
    assert r["fluid_covered"] > 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="reduced configuration (CI)"
    )
    parser.add_argument(
        "--fluid",
        action="store_true",
        help="run the week in both modes and write the wall-clock + "
        "figure-delta comparison to results/week_of_failures_fluid.json",
    )
    args = parser.parse_args()
    if args.smoke and not SMOKE:
        SMOKE = True
        DAYS = 3
        RATE_PER_S = 1_500.0
        UPGRADE_DAY = 1
    if args.fluid:
        discrete = run_week(fluid=False)
        fluid = run_week(fluid=True)
        report = compare_modes(discrete, fluid)
        FLUID_RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
        deltas = report["deltas"]
        print(
            f"discrete wall={report['discrete']['wall_s']}s "
            f"fluid wall={report['fluid']['wall_s']}s "
            f"speedup={deltas['speedup_wall']}x "
            f"events_ratio={deltas['events_ratio']}x"
        )
        print(
            f"figure deltas: offered={deltas['offered_rel']} "
            f"completed={deltas['completed_rel']} "
            f"capacity_final={deltas['capacity_final_rel']} "
            f"p99={deltas['p99_rel']}"
        )
        print(f"wrote {FLUID_RESULT_PATH}")
        raise SystemExit(0)
    r = run_week()
    stats = r["stats"]
    print(
        f"days={DAYS} failures={r['failures']} "
        f"repaired={r['manager'].repairs.repaired_count} "
        f"capacity min={r['min_capacity']:.0%} end={r['final_capacity']:.0%} "
        f"completed={stats.completed:,}/{stats.offered:,} "
        f"metrics={len(r['series'])} snapshots"
    )
