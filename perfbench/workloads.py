"""The benchmark's four workloads, driven through ``manager.endpoint()``.

Every request runs the real serving stack: ``ServiceEndpoint`` ->
``LoadBalancer`` -> ``Deployment`` -> slot lease -> PCIe DMA ->
router/SL3 -> role and back.  Arrivals are open-loop (independent users
arrive regardless of replies) and scheduled exactly in simulated time,
so the generator never runs late.

A workload is built by :func:`setup`, its measured phase (first arrival
to the injector's ``done``) is run by :func:`measure`, and
:func:`summarize` turns the finished run into the end-to-end figures
plus the output checks.  Parameters come from ``spec.json`` beside this
file.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import random
import time

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
from repro.ranking.models import ModelLibrary
from repro.ranking.pipeline import RankingRequestAdapter, ranking_service
from repro.ranking.engine import ScoringEngine
from repro.ranking.software_ranker import SoftwareRanker
from repro.sim import Engine, ScheduledTransients
from repro.sim.units import MS, SEC, US
from repro.workloads import (
    BurstyArrivals,
    OpenLoopInjector,
    PoissonArrivals,
    TraceGenerator,
)

SPEC = json.loads((pathlib.Path(__file__).parent / "spec.json").read_text())


@dataclasses.dataclass
class Scenario:
    """One built workload, ready for its measured phase."""

    name: str
    params: dict
    engine: Engine
    manager: ClusterManager
    traffic: OpenLoopInjector
    count: int
    out_dir: pathlib.Path
    extra: dict = dataclasses.field(default_factory=dict)


class RecordingSink:
    """Forwards to an endpoint and keeps every ``every``-th response.

    Used on ``ranking`` only, so the output check can compare served
    scores with the software ranker.  It adds no simulated event.
    """

    def __init__(self, endpoint, every: int):
        self.endpoint = endpoint
        self.every = every
        self.seen = 0
        self.samples: list = []

    @property
    def outstanding(self) -> int:
        return self.endpoint.outstanding

    def submit(self, request, timeout_ns):
        self.seen += 1
        keep = self.seen % self.every == 0
        response = yield from self.endpoint.submit(request, timeout_ns=timeout_ns)
        if keep and response is not None:
            self.samples.append((request, response))
        return response


def _datacenter(engine: Engine, params: dict) -> Datacenter:
    width, height = params["torus"]
    return Datacenter(
        engine, num_pods=params["pods"], topology=TorusTopology(width=width, height=height)
    )


def _injector(engine, sink, arrivals, pool, params) -> OpenLoopInjector:
    return OpenLoopInjector(
        engine,
        sink,
        arrivals,
        pool,
        max_queue_depth=params["max_queue_depth"],
        timeout_ns=params["timeout_ms"] * MS,
    )


def _echo(name: str, seed: int, out_dir: pathlib.Path) -> Scenario:
    params = SPEC["workloads"][name]
    engine = Engine(seed=seed)
    manager = ClusterManager(_datacenter(engine, params))
    manager.apply(
        ServiceSpec(
            service=echo_service(delay_ns=params["role_delay_us"] * US),
            replicas=params["replicas"],
            request_timeout_ns=params["timeout_ms"] * MS,
        )
    )
    if params["arrivals"] == "poisson":
        arrivals = PoissonArrivals(params["rate_per_s"])
    else:
        arrivals = BurstyArrivals(
            params["base_rate_per_s"],
            params["burst_rate_per_s"],
            period_s=params["period_s"],
            duty=params["duty"],
        )
    pool = [object() for _ in range(64)]
    traffic = _injector(engine, manager.endpoint("echo-service"), arrivals, pool, params)
    return Scenario(name, params, engine, manager, traffic, params["requests"], out_dir)


def _ranking(name: str, seed: int, out_dir: pathlib.Path) -> Scenario:
    params = SPEC["workloads"][name]
    engine = Engine(seed=seed)
    manager = ClusterManager(_datacenter(engine, params))
    library = ModelLibrary.default(scale=params["model_scale"])
    scoring = ScoringEngine(library)
    manager.apply(
        ServiceSpec(
            service=ranking_service(scoring),
            replicas=params["replicas"],
            adapter=RankingRequestAdapter(),
            request_timeout_ns=params["timeout_ms"] * MS,
        )
    )
    generator = TraceGenerator(seed=params["pool_seed"])
    pool = [generator.request() for _ in range(params["pool"])]
    random.Random(seed).shuffle(pool)
    # Warm the pool: each document's features, FFE values and packed
    # vector are computed once here, as the scoring caches would hold
    # them in steady state; the scorer banks still run per request.
    for request in pool:
        scoring.score(request.document, library[request.document.model_id])
    sink = RecordingSink(manager.endpoint("bing-ranking"), params["check_every"])
    traffic = _injector(engine, sink, PoissonArrivals(params["rate_per_s"]), pool, params)
    extra = {"sink": sink, "scoring": scoring, "library": library}
    return Scenario(name, params, engine, manager, traffic, params["requests"], out_dir, extra)


def _week(name: str, seed: int, out_dir: pathlib.Path) -> Scenario:
    params = SPEC["workloads"][name]
    day_ns = params["day_s"] * SEC
    engine = Engine(seed=seed, fluid=True)
    datacenter = _datacenter(engine, params)
    manager = ClusterManager(
        datacenter,
        repair_policy=RepairPolicy(
            distribution="lognormal",
            mean_ns=params["repair_mean_days"] * day_ns,
            sigma=params["repair_sigma"],
        ),
    )

    def spec(service):
        return ServiceSpec(
            service=service,
            replicas=params["replicas"],
            balancing=params["balancing"],
            request_timeout_ns=params["timeout_ms"] * MS,
            health_period_ns=params["watchdog_ms"] * MS,
        )

    handle = manager.apply(spec(echo_service(delay_ns=params["role_delay_us"] * US)))
    start_ns = engine.now
    days = params["days"]
    kills = [start_ns + (day + params["fail_at_fraction"]) * day_ns for day in range(days - 2)]
    upgrade_at = start_ns + (params["upgrade_day"] + 0.5) * day_ns
    engine.fluid.register(ScheduledTransients(kills + [upgrade_at]))
    pool = [object() for _ in range(32)]
    traffic = _injector(
        engine, manager.endpoint("echo-service"), PoissonArrivals(params["rate_per_s"]), pool, params
    )
    series_path = out_dir / f"week_fluid_seed{seed}.jsonl"
    metrics = MetricsRegistry(manager, path=series_path)
    metrics.attach_workload("echo-service", traffic)
    count = int(params["rate_per_s"] * days * params["day_s"])
    extra = {
        "handle": handle,
        "metrics": metrics,
        "series_path": series_path,
        "failures": ClusterFailureInjector(datacenter),
        "upgrade_spec": spec(
            echo_service(payload="scored-v2", delay_ns=params["upgrade_role_delay_us"] * US)
        ),
        "day_ns": day_ns,
    }
    return Scenario(name, params, engine, manager, traffic, count, out_dir, extra)


BUILDERS = {
    "echo_steady": _echo,
    "echo_overload": _echo,
    "week_fluid": _week,
    "ranking": _ranking,
}


def setup(name: str, seed: int, out_dir: pathlib.Path) -> Scenario:
    return BUILDERS[name](name, seed, out_dir)


@dataclasses.dataclass
class Measured:
    """What the measured phase leaves behind."""

    host_s: float
    chunk_s: list
    reference_s: list
    events: int
    dropped: int
    sim_start_ns: float
    sim_end_ns: float
    drained: bool


def reference_kernel() -> int:
    """A fixed pure-Python loop (integer arithmetic and generator
    resumes, about 0.5 ms) that gauges how fast the host runs Python
    right now.  It touches no ``repro`` code and keeps no object alive."""

    def echo():
        value = 0
        while True:
            value = yield value

    x = 0
    for i in range(3000):
        x = (x * 31 + i) & 0xFFFFFF
    gen = echo()
    next(gen)
    for i in range(1000):
        x ^= gen.send(i)
    return x


class ChunkClock:
    """Host seconds of each consecutive chunk of the measured phase, and
    of one :func:`reference_kernel` run after each chunk (not counted in
    the chunk).

    A chunk is a fixed stretch of simulated time, so every same-seed
    episode splits into the same chunks doing the same work.
    """

    def __init__(self):
        self.chunk_s: list[float] = []
        self.reference_s: list[float] = []
        self.last = time.perf_counter()

    def tick(self) -> None:
        now = time.perf_counter()
        self.chunk_s.append(now - self.last)
        reference_kernel()
        self.last = time.perf_counter()
        self.reference_s.append(self.last - now)


def _run_to(sc: Scenario, done, clock: ChunkClock) -> bool:
    """Run until ``done`` fires, in chunks of ``chunk_us`` simulated
    microseconds; False when a whole chunk passes without an event (the
    queue has drained; the arrival rates make an idle chunk otherwise
    vanishingly rare).  Stopping at a chunk boundary moves no event."""
    engine = sc.engine
    chunk_ns = sc.params["chunk_us"] * US
    while not done.triggered:
        before = engine.events_dispatched
        engine.run(until=engine.now + chunk_ns)
        clock.tick()
        if engine.events_dispatched == before:
            return False
    return True


def measure(sc: Scenario) -> Measured:
    """Run the measured phase: first arrival to the injector's done.

    The phase runs in whole chunks, so the engine stops up to one chunk
    after ``done``; the simulated figures are read when ``done`` fires.
    """
    engine = sc.engine
    if sc.name == "week_fluid":
        sc.extra["metrics"].start(sc.params["sample_ms"] * MS)
    events0, dropped0, sim0 = engine.events_dispatched, engine.events_dropped, engine.now

    def counters():
        return {"events": engine.events_dispatched, "dropped": engine.events_dropped,
                "now": engine.now}

    at_done = {}
    clock = ChunkClock()
    done = sc.traffic.run(sc.count)
    done.add_callback(lambda _: at_done.update(counters()))
    if sc.name == "week_fluid":
        drained = _drive_week(sc, done, clock)
    else:
        drained = _run_to(sc, done, clock)
    end = at_done or counters()
    return Measured(
        host_s=sum(clock.chunk_s),
        chunk_s=clock.chunk_s,
        reference_s=clock.reference_s,
        events=end["events"] - events0,
        dropped=end["dropped"] - dropped0,
        sim_start_ns=sim0,
        sim_end_ns=end["now"],
        drained=drained,
    )


def _drive_week(sc: Scenario, done, clock: ChunkClock) -> bool:
    """The week: one ring killed per day, the upgrade rolled midweek.
    Each ``sample_ms`` step is one chunk."""
    engine, params, extra = sc.engine, sc.params, sc.extra
    day_ns, sample_ns = extra["day_ns"], params["sample_ms"] * MS
    start_ns = engine.now
    next_kill, upgraded = 0, False
    horizon = start_ns + 4 * params["days"] * day_ns
    while not done.triggered:
        if engine.now > horizon:
            return False
        engine.run(until=engine.now + sample_ns)
        elapsed = engine.now - start_ns
        handle = extra["handle"]
        if (
            next_kill < params["days"] - 2
            and elapsed >= (next_kill + params["fail_at_fraction"]) * day_ns
            and handle.deployments
        ):
            extra["failures"].kill_ring(handle.deployments[0])
            next_kill += 1
        if not upgraded and elapsed >= (params["upgrade_day"] + 0.5) * day_ns:
            handle.upgrade(extra["upgrade_spec"])
            upgraded = True
        clock.tick()
    extra["kills"] = next_kill
    extra["upgraded"] = upgraded
    return True


def quantile(ordered: list, q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(sc: Scenario, m: Measured) -> dict:
    """End-to-end figures of one measured phase plus its output checks.

    ``problems`` lists every failed check; ``unresolved`` counts
    requests the simulator mis-accounted (never resolved by drain, or
    breaking the admission identities).
    """
    stats = sc.traffic.stats
    params = sc.params
    offered = stats.offered
    problems: list[str] = []
    unresolved = 0
    if offered != sc.count:
        problems.append(f"offered {offered} != scheduled {sc.count}")
    if offered != stats.admitted + stats.rejected:
        problems.append("offered != admitted + rejected")
        unresolved += abs(offered - stats.admitted - stats.rejected)
    pending = stats.admitted - stats.completed - stats.timeouts
    if not m.drained or pending:
        problems.append(f"{pending} admitted requests never resolved")
        unresolved += abs(pending)

    latencies = sorted(stats.latencies_ns)
    if len(latencies) != stats.completed:
        problems.append(
            f"latency sample holds {len(latencies)} of {stats.completed} completions"
        )
    timeout_ns = params["timeout_ms"] * MS
    limit_ns = params["latency_limit_us"] * US
    within_timeout = sum(1 for x in latencies if x <= timeout_ns)
    within_limit = sum(1 for x in latencies if x <= limit_ns)
    sim_s = (m.sim_end_ns - m.sim_start_ns) / SEC
    n = len(latencies)
    beyond_p99 = n - math.ceil(0.99 * n)
    if beyond_p99 < 10:
        problems.append(f"only {beyond_p99} samples beyond p99")
    if sc.name in CHECKS:
        problems.extend(CHECKS[sc.name](sc))
    return {
        "offered": offered,
        "admitted": stats.admitted,
        "rejected": stats.rejected,
        "completed": stats.completed,
        "timeouts": stats.timeouts,
        "unresolved": unresolved,
        "problems": problems,
        "samples": n,
        "beyond_p99": beyond_p99,
        "host_s": m.host_s,
        "chunk_s": m.chunk_s,
        "reference_s": m.reference_s,
        "sim": {
            "events_per_req": m.events / offered,
            "sim_p50_us": quantile(latencies, 0.50) / US if n else 0.0,
            "sim_p99_us": quantile(latencies, 0.99) / US if n else 0.0,
            "sim_goodput_per_s": within_timeout / sim_s if sim_s else 0.0,
            "sim_slo_met_frac": within_limit / offered,
        },
    }


def _check_week(sc: Scenario) -> list:
    problems = []
    extra, params = sc.extra, sc.params
    manager = sc.manager
    # Drain: a lognormal repair drawn late in the week may still be in
    # the shop when the traffic ends; give it up to four more days.
    engine = sc.engine
    give_up = engine.now + 4 * extra["day_ns"]
    while any(t.open for t in manager.repairs.tickets) and engine.now < give_up:
        engine.run(until=engine.now + params["sample_ms"] * MS)
    metrics = extra["metrics"]
    metrics.sample()
    metrics.stop()
    tickets = manager.repairs.tickets
    if extra.get("kills") != params["days"] - 2:
        problems.append(f"{extra.get('kills')} rings killed, expected {params['days'] - 2}")
    if not extra.get("upgraded"):
        problems.append("the midweek upgrade never ran")
    if len(tickets) != extra.get("kills") or manager.repairs.repaired_count != len(tickets):
        problems.append(
            f"{manager.repairs.repaired_count} of {len(tickets)} tickets repaired"
        )
    if manager.scheduler.cordoned_slots:
        problems.append(f"cordons left: {manager.scheduler.cordoned_slots}")
    series = read_series(extra["series_path"])
    final = series[-1]["services"]["echo-service"]
    if final["ready_replicas"] != params["replicas"]:
        problems.append(f"ready_replicas {final['ready_replicas']} != {params['replicas']}")
    if final["workload"] != sc.traffic.stats.to_dict():
        problems.append("exported workload counters differ from OpenLoopStats")
    if not all(
        d.service is extra["upgrade_spec"].service for d in extra["handle"].deployments
    ):
        problems.append("a replica still runs the pre-upgrade image")
    return problems


def _check_ranking(sc: Scenario) -> list:
    """Sampled served scores match the software ranker's.

    The ring sums the three scorer banks' partial scores in bank order,
    so a served score equals that sum exactly and the software ranker's
    single-pass score to rounding, as ``examples/quickstart.py`` checks.
    """
    sink, scoring, library = sc.extra["sink"], sc.extra["scoring"], sc.extra["library"]
    if not sink.samples:
        return ["no ranking responses were sampled"]
    problems = []
    software = SoftwareRanker(sc.manager.datacenter.pod(0).server_at((1, 5)), scoring)
    engine = sc.engine
    for request, response in sink.samples:
        document = request.document
        model = library[document.model_id]
        served = response.payload.score
        banked = 0.0
        for bank in range(3):
            banked += scoring.bank_partial(document, model, bank)

        def body(request=request):
            return (yield from software.score_request(request))

        proc = engine.process(body())
        engine.run_until(proc)
        if served != banked or not math.isclose(served, proc.value[0], rel_tol=1e-9):
            problems.append(f"doc {document.doc_id}: served {served} vs software {proc.value[0]}")
    return problems


CHECKS = {"week_fluid": _check_week, "ranking": _check_ranking}
