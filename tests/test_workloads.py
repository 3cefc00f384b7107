"""Tests for workload generation: Zipf sampling, query properties, and
the open-loop arrival processes."""

import random

import pytest

from repro.sim import Engine, SEC
from repro.workloads.openloop import (
    BurstyArrivals,
    DiurnalArrivals,
    OpenLoopInjector,
    PoissonArrivals,
)
from repro.workloads.traces import TraceGenerator, ZipfSampler


def fixed_rng(seed: int) -> random.Random:
    # simlint: allow-rng -- distribution tests drive the samplers with a
    # pinned local stream; no engine (hence no RngStreams root) exists.
    return random.Random(seed)

def test_zipf_head_is_heavier():
    sampler = ZipfSampler(1_000, fixed_rng(1))
    draws = [sampler.sample() for _ in range(5_000)]
    head = sum(1 for d in draws if d < 10)
    tail = sum(1 for d in draws if d >= 500)
    assert head > tail * 3


def test_zipf_validation():
    with pytest.raises(ValueError):
        ZipfSampler(0, fixed_rng(1))


def test_zipf_covers_range():
    sampler = ZipfSampler(50, fixed_rng(2))
    draws = {sampler.sample() for _ in range(5_000)}
    assert min(draws) == 0
    assert max(draws) < 50


def test_queries_have_unique_terms():
    gen = TraceGenerator(seed=3)
    for _ in range(50):
        query = gen.query()
        assert len(set(query.terms)) == len(query.terms)
        assert 1 <= len(query.terms) <= 8


def test_document_model_matches_query_model():
    gen = TraceGenerator(seed=4, model_mix={2: 1.0})
    request = gen.request()
    assert request.query.model_id == 2
    assert request.document.model_id == 2


def test_documents_have_increasing_ids():
    gen = TraceGenerator(seed=5)
    ids = [gen.request().document.doc_id for _ in range(5)]
    assert ids == sorted(ids)
    assert len(set(ids)) == 5


def test_tuple_mix_has_all_three_sizes():
    gen = TraceGenerator(seed=6)
    sizes = set()
    for request in gen.requests(20):
        for stream in request.document.streams:
            for hit in stream.tuples:
                sizes.add(hit.encoded_size)
    assert sizes == {2, 4, 6}


def test_zipf_sample_hits_first_index_on_tiny_u():
    sampler = ZipfSampler(100, fixed_rng(7))
    sampler.rng = fixed_rng(7)
    # bisect path must clamp into [0, vocabulary).
    assert all(0 <= sampler.sample() < 100 for _ in range(2_000))


def test_model_mix_must_be_non_empty():
    with pytest.raises(ValueError):
        TraceGenerator(seed=1, model_mix={})


def test_model_mix_weights_must_be_positive():
    with pytest.raises(ValueError):
        TraceGenerator(seed=1, model_mix={0: 0.5, 1: -0.1})
    with pytest.raises(ValueError):
        TraceGenerator(seed=1, model_mix={0: 0.0})


# --- arrival processes ---------------------------------------------------------


def test_poisson_mean_interarrival_matches_rate():
    arrivals = PoissonArrivals(10_000.0)
    rng = fixed_rng(5)
    gaps = [arrivals.interarrival_ns(rng, 0.0) for _ in range(20_000)]
    mean = sum(gaps) / len(gaps)
    assert mean == pytest.approx(SEC / 10_000.0, rel=0.05)


def test_poisson_rejects_bad_rate():
    with pytest.raises(ValueError):
        PoissonArrivals(0.0)


def test_bursty_rate_alternates_with_phase():
    arrivals = BurstyArrivals(
        base_rate_per_s=1_000.0, burst_rate_per_s=9_000.0, period_s=1.0, duty=0.25
    )
    assert arrivals.rate_at(0.1 * SEC) == 9_000.0
    assert arrivals.rate_at(0.5 * SEC) == 1_000.0
    assert arrivals.rate_at(1.1 * SEC) == 9_000.0  # wraps each period


def test_bursty_validation():
    with pytest.raises(ValueError):
        BurstyArrivals(0.0, 100.0, 1.0)
    with pytest.raises(ValueError):
        BurstyArrivals(100.0, 200.0, 1.0, duty=1.5)


def test_diurnal_rate_bounded_by_amplitude():
    arrivals = DiurnalArrivals(1_000.0, amplitude=0.5, period_s=1.0)
    rates = [arrivals.rate_at(t * 0.01 * SEC) for t in range(100)]
    assert max(rates) <= 1_500.0 + 1e-6
    assert min(rates) >= 500.0 - 1e-6
    assert max(rates) > 1_400.0 and min(rates) < 600.0


def test_diurnal_validation():
    with pytest.raises(ValueError):
        DiurnalArrivals(1_000.0, amplitude=1.5)


# --- open-loop injector ---------------------------------------------------------


class ImmediateSink:
    """Accepts every request instantly (no simulated service time)."""

    def __init__(self):
        self.outstanding = 0
        self.seen = []

    def submit(self, request, timeout_ns):
        self.seen.append(request)
        if False:  # pragma: no cover - generator protocol
            yield
        return request


class SaturatedSink(ImmediateSink):
    def __init__(self):
        super().__init__()
        self.outstanding = 1_000


def test_open_loop_offers_and_completes():
    eng = Engine(seed=8)
    sink = ImmediateSink()
    injector = OpenLoopInjector(
        eng, sink, PoissonArrivals(1_000_000.0), pool=["a", "b", "c"]
    )
    stats = eng.run_until(injector.run(30))
    assert stats.offered == stats.admitted == stats.completed == 30
    assert stats.rejected == 0
    assert sink.seen[:3] == ["a", "b", "c"]  # pool cycles in order
    assert stats.admission_fraction == 1.0


def test_open_loop_admission_control_sheds():
    eng = Engine(seed=8)
    sink = SaturatedSink()
    injector = OpenLoopInjector(
        eng, sink, PoissonArrivals(1_000_000.0), pool=["a"], max_queue_depth=10
    )
    stats = eng.run_until(injector.run(25))
    assert stats.offered == 25
    assert stats.admitted == 0
    assert stats.rejected == 25


def test_open_loop_stats_survive_zero_arrival_window():
    """Regression: summarising a window with zero arrivals (or a total
    outage that shed every arrival) must report zeros, not raise."""
    from repro.workloads.openloop import OpenLoopStats

    empty = OpenLoopStats()
    assert empty.admission_fraction == 0.0
    summary = empty.stats()
    assert summary.count == 0
    assert summary.p99 == 0.0

    all_shed = OpenLoopStats(offered=10, admitted=0, rejected=10)
    assert all_shed.admission_fraction == 0.0
    assert all_shed.stats().count == 0


def test_open_loop_validates_inputs():
    eng = Engine()
    sink = ImmediateSink()
    with pytest.raises(ValueError):
        OpenLoopInjector(eng, sink, PoissonArrivals(1.0), pool=[])
    with pytest.raises(ValueError):
        OpenLoopInjector(eng, sink, PoissonArrivals(1.0), pool=["a"], max_queue_depth=0)
    injector = OpenLoopInjector(eng, sink, PoissonArrivals(1.0), pool=["a"])
    with pytest.raises(ValueError):
        injector.run(0)


# -- perf-overhaul behavior: determinism, completion gate, batching -----


class EchoService:
    """Generator sink with real service time plus, unless ``guard`` is
    off, a per-request guard deadline that is disarmed on completion —
    the cluster submit shape, concentrated on the deadline queue."""

    def __init__(self, engine, service_ns=1_500.0, guard=True):
        self.engine = engine
        self.service_ns = service_ns
        self.guard = guard
        self.outstanding = 0
        self.expired = []

    def submit(self, request, timeout_ns):
        engine = self.engine
        self.outstanding += 1
        try:
            if self.guard:
                deadline = engine.deadlines.arm(timeout_ns, self.expired.append, request)
            yield engine.timeout(self.service_ns)
            if self.guard:
                engine.deadlines.disarm(deadline)
            return request
        finally:
            self.outstanding -= 1


def _mixed_openloop_run(guard):
    """Poisson phase then bursty phase on one engine, echo service with
    guard-deadline churn throughout, or none."""
    eng = Engine(seed=123)
    sink = EchoService(eng, guard=guard)
    poisson = OpenLoopInjector(
        eng, sink, PoissonArrivals(2_000_000.0), pool=list(range(8))
    )
    stats_a = eng.run_until(poisson.run(400))
    bursty = OpenLoopInjector(
        eng,
        sink,
        BurstyArrivals(500_000.0, 4_000_000.0, period_s=0.0002),
        pool=list(range(8)),
        seed_tag="bursty",
    )
    stats_b = eng.run_until(bursty.run(300))
    assert sink.expired == []
    return eng, stats_a, stats_b


def test_disarmed_guard_deadlines_do_not_change_results():
    """Guards that never fire must be invisible to results: same seed,
    same arrivals, identical completion counts, latency samples, event
    count and final clock with and without them."""
    guarded, ga, gb = _mixed_openloop_run(guard=True)
    bare, ba, bb = _mixed_openloop_run(guard=False)
    assert (ga.offered, ga.completed, ga.rejected) == (
        ba.offered,
        ba.completed,
        ba.rejected,
    )
    assert (gb.offered, gb.completed, gb.rejected) == (
        bb.offered,
        bb.completed,
        bb.rejected,
    )
    # Sub-capacity reservoirs hold every observation: bit-identical.
    assert list(ga.latencies_ns) == list(ba.latencies_ns)
    assert list(gb.latencies_ns) == list(bb.latencies_ns)
    assert ga.stats().p99 == ba.stats().p99
    assert guarded.now == bare.now
    assert guarded.events_dispatched == bare.events_dispatched


def test_counter_gate_fires_after_last_inflight_resolves():
    eng = Engine(seed=5)
    sink = EchoService(eng, service_ns=10_000.0)
    injector = OpenLoopInjector(eng, sink, PoissonArrivals(5_000_000.0), pool=["r"])
    stats = eng.run_until(injector.run(50))
    assert stats.completed == 50
    assert sink.outstanding == 0  # gate held until every handler resolved
    # The injector is reusable: a fresh gate per run, cumulative stats.
    stats2 = eng.run_until(injector.run(10))
    assert stats2 is stats
    assert stats.offered == 60
    assert stats.completed == 60


def test_second_run_while_in_flight_is_rejected():
    eng = Engine(seed=5)
    injector = OpenLoopInjector(
        eng, EchoService(eng), PoissonArrivals(1_000_000.0), pool=["r"]
    )
    injector.run(5)
    with pytest.raises(RuntimeError):
        injector.run(5)


def test_open_loop_latencies_are_reservoir_bounded():
    from repro.analysis import ReservoirSample
    from repro.workloads.openloop import OpenLoopStats

    stats = OpenLoopStats()
    reservoir = stats.latencies_ns
    assert isinstance(reservoir, ReservoirSample)
    for value in range(reservoir.CAPACITY + 500):
        reservoir.append(float(value))
    assert reservoir.count == reservoir.CAPACITY + 500
    assert reservoir.sample_size == reservoir.CAPACITY  # memory stays flat
    assert stats.stats().count == reservoir.CAPACITY + 500
