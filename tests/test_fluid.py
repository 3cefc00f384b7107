"""Fluid fast-forward: equivalence with the discrete path, transient
handling, and the primitive that rides along
(ReservoirSample.merge_analytic)."""

import math

import pytest

from repro.analysis import ReservoirSample
from repro.cluster import ClusterFailureInjector
from repro.fabric import Datacenter, TorusTopology
from repro.services import FailureKind
from repro.sim import Engine, SEC, Store
from repro.sim.fluid import (
    FluidModel,
    FluidProfile,
    PeriodicTransient,
    ScheduledTransients,
)
from repro.sim.units import MS
from repro.workloads.openloop import (
    BurstyArrivals,
    DiurnalArrivals,
    OpenLoopInjector,
    PoissonArrivals,
)

# --- echo sink with the fluid protocol ------------------------------------


class EchoServer:
    def __init__(self, engine, service_ns):
        self.engine = engine
        self.queue = Store(engine, name="echo-q")
        engine.process(self._serve(service_ns), name="echo.worker", daemon=True)

    def _serve(self, service_ns):
        engine = self.engine
        while True:
            payload, done = yield self.queue.get()
            yield engine.timeout(service_ns)
            if not done.triggered:  # else its request timed out
                done.succeed(payload)


class EchoCluster:
    """Round-robin deterministic-service sink publishing an exact
    M/D/c fluid profile — the reference for equivalence checks."""

    def __init__(self, engine, servers, service_ns):
        self.engine = engine
        self.service_ns = service_ns
        self.servers = [EchoServer(engine, service_ns) for _ in range(servers)]
        self.outstanding = 0
        self._next = 0

    def submit(self, request, timeout_ns):
        engine = self.engine
        self.outstanding += 1
        try:
            server = self.servers[self._next]
            self._next = (self._next + 1) % len(self.servers)
            done = engine.event(name="echo-done")
            server.queue.try_put((request, done))
            # On expiry the request resolves as a timeout (None).
            deadline = engine.deadlines.arm(timeout_ns, done.succeed, None)
            try:
                return (yield done)
            finally:
                engine.deadlines.disarm(deadline)
        finally:
            self.outstanding -= 1

    def fluid_profile(self):
        return FluidProfile(
            servers=len(self.servers),
            service_ns=self.service_ns,
            cursor=self._next,
        )

    def note_fluid(self, window):
        self._next = (self._next + window.admitted) % len(self.servers)


def run_once(
    fluid,
    arrivals_factory,
    count=8_000,
    servers=4,
    service_ns=1_500.0,
    max_depth=256,
    timeout_ns=5 * SEC,
    sanitize=False,
    script=None,
):
    engine = Engine(seed=2014, fluid=fluid, sanitize=sanitize)
    cluster = EchoCluster(engine, servers, service_ns)
    injector = OpenLoopInjector(
        engine,
        cluster,
        arrivals_factory(),
        pool=list(range(16)),
        max_queue_depth=max_depth,
        timeout_ns=timeout_ns,
    )
    if script is not None:
        script(engine, cluster)
    done = injector.run(count)
    stats = engine.run_until(done)
    return {
        "counters": injector.stats.to_dict(),
        "latency": stats.stats(),
        "now": engine.now,
        "dispatched": engine.events_dispatched,
        "windows": engine.fluid.windows if engine.fluid else 0,
    }


def assert_equivalent(discrete, fluid, min_event_ratio=2.0):
    assert fluid["counters"] == discrete["counters"]
    assert fluid["now"] == discrete["now"]
    for field in ("p50", "p99"):
        d = getattr(discrete["latency"], field)
        f = getattr(fluid["latency"], field)
        assert f == pytest.approx(d, rel=0.01), (field, d, f)
    # The whole point: the same answers from far fewer engine events.
    assert fluid["dispatched"] * min_event_ratio <= discrete["dispatched"], (
        fluid["dispatched"],
        discrete["dispatched"],
    )
    assert fluid["windows"] > 0


# --- equivalence: same seed, same answers ---------------------------------


def test_fluid_matches_discrete_poisson():
    def factory():
        return PoissonArrivals(400_000.0)
    discrete = run_once(False, factory)
    fluid = run_once(True, factory)
    assert_equivalent(discrete, fluid, min_event_ratio=50.0)


def test_fluid_matches_discrete_bursty():
    def factory():
        return BurstyArrivals(
            base_rate_per_s=150_000.0,
            burst_rate_per_s=900_000.0,
            period_s=0.008,
            duty=0.25,
        )
    discrete = run_once(False, factory)
    fluid = run_once(True, factory)
    assert_equivalent(discrete, fluid)


def test_fluid_matches_discrete_diurnal():
    # Slow rate drift: the curvature horizon (~4 ms at this amplitude
    # and period) clears the minimum window, so fluid engages in
    # horizon-bounded steps that track the varying rate.
    def factory():
        return DiurnalArrivals(400_000.0, amplitude=0.2, period_s=0.1)
    discrete = run_once(False, factory)
    fluid = run_once(True, factory)
    assert_equivalent(discrete, fluid)


def test_fluid_sits_out_fast_diurnal_swings():
    # Rate curvature too fast for the tolerance: the horizon never
    # clears the minimum window and the run stays discrete — correct
    # (if conservative) behavior, with answers unchanged.
    def factory():
        return DiurnalArrivals(400_000.0, amplitude=0.4, period_s=0.02)
    discrete = run_once(False, factory, count=2_000)
    fluid = run_once(True, factory, count=2_000)
    assert fluid["counters"] == discrete["counters"]
    assert fluid["now"] == discrete["now"]
    assert fluid["windows"] == 0


def test_fluid_matches_discrete_under_sanitizer():
    def factory():
        return PoissonArrivals(400_000.0)
    discrete = run_once(False, factory, count=2_000, sanitize=True)
    fluid = run_once(True, factory, count=2_000, sanitize=True)
    assert_equivalent(discrete, fluid, min_event_ratio=10.0)


def test_fluid_matches_discrete_with_admission_pressure():
    # Depth limit low enough that bursts shed: rejected counts must
    # still agree exactly (the virtual queue sees the same depth).
    def factory():
        return BurstyArrivals(
            base_rate_per_s=200_000.0,
            burst_rate_per_s=4_000_000.0,
            period_s=0.004,
            duty=0.5,
        )
    discrete = run_once(False, factory, max_depth=24, servers=2)
    fluid = run_once(True, factory, max_depth=24, servers=2)
    assert discrete["counters"]["rejected"] > 0  # the scenario bites
    assert_equivalent(discrete, fluid, min_event_ratio=1.0)


def test_fluid_matches_discrete_across_kill_and_repair():
    """A server is pulled from rotation mid-run and restored later —
    the fluid run must drop to discrete around both transients (the
    instants are registered as ScheduledTransients) and still agree
    with the discrete run exactly."""
    kill_at = 6.0 * MS
    repair_at = 14.0 * MS

    def script(engine, cluster):
        if engine.fluid is not None:
            # A 20 ms run: shrink the guard/warm-up from the production
            # 5 ms so fluid has room to engage between the transients.
            engine.fluid.guard_ns = 1.0 * MS
            engine.fluid.warmup_ns = 1.0 * MS
            engine.fluid.register(ScheduledTransients([kill_at, repair_at]))

        def chaos():
            yield engine.timeout(kill_at)
            victim = cluster.servers.pop()
            cluster._next %= len(cluster.servers)
            if engine.fluid is not None:
                engine.fluid.note_transient()
            yield engine.timeout(repair_at - kill_at)
            cluster.servers.append(victim)
            if engine.fluid is not None:
                engine.fluid.note_transient()

        engine.process(chaos(), name="chaos", daemon=True)

    def factory():
        return PoissonArrivals(400_000.0)
    discrete = run_once(False, factory, script=script)
    fluid = run_once(True, factory, script=script)
    assert_equivalent(discrete, fluid, min_event_ratio=1.5)


def test_fluid_off_is_the_default_and_discrete_path_is_unchanged():
    engine = Engine(seed=1)
    assert engine.fluid is None
    def factory():
        return PoissonArrivals(400_000.0)
    a = run_once(False, factory, count=1_000)
    b = run_once(False, factory, count=1_000)
    assert a == b  # same seed, same series — still fully deterministic


def test_finished_injector_stops_bounding_fluid_windows():
    """A bursty injector's rate edges bound fluid windows only while its
    run is in flight: once the run drains its source is unregistered,
    and an injector that never ran registered nothing."""

    def bursty():
        return BurstyArrivals(
            base_rate_per_s=150_000.0,
            burst_rate_per_s=900_000.0,
            period_s=0.008,
            duty=0.25,
        )

    def poisson_windows(engine, cluster):
        injector = OpenLoopInjector(
            engine, cluster, PoissonArrivals(400_000.0), pool=[0], seed_tag="poisson"
        )
        before = engine.fluid.windows
        engine.run_until(injector.run(2_000))
        return engine.fluid.windows - before

    def fresh():
        engine = Engine(seed=2014, fluid=True)
        return engine, EchoCluster(engine, 4, 1_500.0)

    alone = poisson_windows(*fresh())

    engine, cluster = fresh()
    finished = OpenLoopInjector(engine, cluster, bursty(), pool=[0], seed_tag="bursty")
    engine.run_until(finished.run(2_000))
    assert all(source is not finished._edges for source, _ in engine.fluid._sources)
    assert poisson_windows(engine, cluster) == alone

    engine, cluster = fresh()
    OpenLoopInjector(engine, cluster, bursty(), pool=[0], seed_tag="idle")
    assert poisson_windows(engine, cluster) == alone


# --- coordinator mechanics ------------------------------------------------


def test_window_end_respects_guard_and_observers():
    engine = Engine(seed=0, fluid=True)
    fluid = engine.fluid
    fluid.register(ScheduledTransients([20.0 * MS]))  # guarded
    fluid.register(PeriodicTransient(7.0 * MS), guarded=False)
    # Observer tick at 7ms bounds exactly; the kill at 20ms minus the
    # 5ms guard would allow 15ms.
    assert fluid.window_end(0.0) == 7.0 * MS
    assert fluid.window_end(8.0 * MS) == 14.0 * MS
    # Past both ticks before the guarded transient: guard applies.
    assert fluid.window_end(14.5 * MS) == 15.0 * MS


def test_note_transient_forces_discrete_warmup():
    engine = Engine(seed=0, fluid=True)
    fluid = engine.fluid
    fluid.note_transient()
    assert fluid.window_end(0.0) == 0.0  # no window during warm-up
    until = engine.now + fluid.warmup_ns
    assert fluid.window_end(until - 1.0) == until - 1.0
    assert fluid.window_end(until) > until


def test_every_failure_injection_notes_one_transient():
    engine = Engine(seed=0, fluid=True)
    datacenter = Datacenter(engine, num_pods=1, topology=TorusTopology(width=2, height=2))
    fluid = engine.fluid
    injector = ClusterFailureInjector(datacenter)
    # The dip after the failure is simulated discretely.
    injector.inject(FailureKind.FPGA_HARDWARE_FAULT, 0, (0, 0))
    assert fluid.transients_noted == 1
    assert fluid.window_end(0.0) == 0.0
    injector.inject(FailureKind.PLL_UNLOCK, 0, (1, 0))
    assert fluid.transients_noted == 2


def test_window_narrower_than_minimum_opens_no_fluid_window():
    """A guarded transient half a minimum window past the guard leaves
    too narrow a window: the injector stays discrete.  Moved to twice
    the minimum, the same run opens a window."""

    def factory():
        return PoissonArrivals(400_000.0)

    def transient_at(min_windows):
        def script(engine, cluster):
            fluid = engine.fluid
            when = fluid.guard_ns + fluid.min_window_ns * min_windows
            fluid.register(ScheduledTransients([when]))
            assert fluid.window_end(0.0) == fluid.min_window_ns * min_windows

        return script

    # 200 arrivals span ~0.5 ms, all before the transient.
    discrete = run_once(False, factory, count=200)
    narrow = run_once(True, factory, count=200, script=transient_at(0.5))
    wide = run_once(True, factory, count=200, script=transient_at(2.0))
    assert narrow["windows"] == 0
    assert narrow["dispatched"] == discrete["dispatched"]
    assert wide["windows"] > 0
    assert narrow["counters"] == wide["counters"] == discrete["counters"]


def test_run_deadline_bounds_windows():
    engine = Engine(seed=0, fluid=True)
    seen = []

    def probe():
        yield engine.timeout(1.0 * MS)
        seen.append(engine.fluid.window_end(engine.now))

    engine.process(probe())
    engine.run(until=3.0 * MS)
    assert seen == [3.0 * MS]
    # Outside a bounded run the deadline no longer caps the window.
    assert engine.fluid.window_end(engine.now) == math.inf


def test_periodic_transient_is_strictly_after_now():
    ticks = PeriodicTransient(10.0, anchor_ns=0.0)
    assert ticks.next_transient_ns(0.0) == 10.0
    assert ticks.next_transient_ns(10.0) == 20.0
    assert ticks.next_transient_ns(9.999999) == 10.0


def test_scheduled_transients_ordering():
    sched = ScheduledTransients([5.0, 1.0])
    sched.add(3.0)
    assert sched.next_transient_ns(0.0) == 1.0
    assert sched.next_transient_ns(1.0) == 3.0
    assert sched.next_transient_ns(5.0) == math.inf


# --- the virtual queue ----------------------------------------------------


def test_fluid_model_tracks_queue_buildup_exactly():
    model = FluidModel(FluidProfile(servers=2, service_ns=10.0))
    # Three arrivals at t=0: two start immediately, one queues and
    # waits for channel 0 to free.
    completions = [model.offer(0.0) for _ in range(3)]
    assert completions == [10.0, 10.0, 20.0]
    assert model.outstanding == 3
    assert model.drain(10.0) == 2
    assert model.outstanding == 1
    # The queued arrival retires exactly at its returned instant.
    assert model.drain(completions[-1] - 1.0) == 0
    assert model.drain(completions[-1]) == 1
    assert model.outstanding == 0


def test_fluid_model_requires_exact_profile():
    sampler_profile = FluidProfile(servers=1, sampler=lambda rng: 1.0)
    with pytest.raises(ValueError):
        FluidModel(sampler_profile)


def test_fluid_profile_validation():
    with pytest.raises(ValueError):
        FluidProfile(servers=0, service_ns=1.0)
    with pytest.raises(ValueError):
        FluidProfile(servers=1)
    with pytest.raises(ValueError):
        FluidProfile(servers=1, service_ns=-1.0)


# --- ReservoirSample.merge_analytic ---------------------------------------


def test_merge_analytic_exact_below_capacity():
    reservoir = ReservoirSample()
    reservoir.merge_analytic(100, 2_000.0)
    assert reservoir.count == 100
    assert reservoir.total == pytest.approx(100 * 2_000.0)
    summary = reservoir.summary()
    assert summary.count == 100
    assert summary.p50 == pytest.approx(2_000.0)


def test_merge_analytic_beyond_capacity_keeps_counts(monkeypatch):
    monkeypatch.setattr(ReservoirSample, "CAPACITY", 64)
    reservoir = ReservoirSample()
    reservoir.extend([1_000.0] * 64)
    reservoir.merge_analytic(10_000, 3_000.0)
    assert reservoir.count == 10_064
    assert reservoir.sample_size == 64
    # The bulk merge dominates: most reservoir slots now hold its mean.
    merged = sum(1 for v in reservoir._sample if v == 3_000.0)
    assert merged > 32


def test_merge_analytic_validates_count():
    reservoir = ReservoirSample()
    with pytest.raises(ValueError):
        reservoir.merge_analytic(-1, 1.0)
    reservoir.merge_analytic(0, 1.0)  # no-op
    assert reservoir.count == 0
