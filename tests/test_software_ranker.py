"""Unit tests for the software baseline's timing model."""

import pytest

from repro.fabric import Pod, TorusTopology
from repro.ranking.engine import ScoringEngine
from repro.ranking.models import ModelLibrary
from repro.ranking.software_ranker import SoftwareRanker
from repro.sim import AllOf, Engine
from repro.workloads import OpenLoopInjector, PoissonArrivals, TraceGenerator


@pytest.fixture(scope="module")
def setup():
    eng = Engine(seed=41)
    pod = Pod(eng, topology=TorusTopology(width=2, height=2))
    library = ModelLibrary.default(scale=0.05)
    scoring = ScoringEngine(library)
    server = pod.server_at((0, 0))
    # Fixed-size documents: queueing/contention effects are then not
    # confounded by the heavy doc-size tail.
    gen = TraceGenerator(seed=42)
    requests = [gen.request(target_size=6_500) for _ in range(6)]
    return eng, server, scoring, library, requests


def test_base_service_grows_with_document_size(setup):
    eng, server, scoring, library, _requests = setup
    ranker = SoftwareRanker(server, scoring)
    gen = TraceGenerator(seed=43)
    small = gen.request(target_size=1_000)
    large = gen.request(target_size=40_000)
    model = library[small.document.model_id]
    model_large = library[large.document.model_id]
    assert ranker.base_service_ns(large, model_large) > 2 * ranker.base_service_ns(
        small, model
    )


def test_score_matches_engine(setup):
    eng, server, scoring, library, requests = setup
    ranker = SoftwareRanker(server, scoring)
    request = requests[0]
    model = library[request.document.model_id]

    def run():
        result = yield from ranker.score_request(request)
        return result

    proc = eng.process(run())
    eng.run_until(proc)
    score, latency = proc.value
    assert score == scoring.score(request.document, model)
    assert latency > 0

    # The same scores when the ranker serves as an open-loop sink.
    served = []
    submit = ranker.submit

    def recorded_submit(request, timeout_ns):
        result = yield from submit(request, timeout_ns)
        served.append((request, result))
        return result

    ranker.submit = recorded_submit
    injector = OpenLoopInjector(eng, ranker, PoissonArrivals(20_000.0), requests)
    stats = eng.run_until(injector.run(len(requests)))
    assert stats.offered == stats.admitted == stats.completed == len(requests)
    assert ranker.outstanding == 0 and len(served) == len(requests)
    for request, (score, _latency) in served:
        model = library[request.document.model_id]
        assert score == scoring.score(request.document, model)


def test_latency_includes_ssd_and_queueing(setup):
    eng, server, scoring, library, requests = setup
    ranker = SoftwareRanker(server, scoring)
    request = requests[1]
    model = library[request.document.model_id]
    base = ranker.base_service_ns(request, model)

    def run():
        result = yield from ranker.score_request(request)
        return result

    proc = eng.process(run())
    eng.run_until(proc)
    _score, latency = proc.value
    assert latency >= base * 0.8  # service dominates unloaded latency
    assert latency >= ranker.SSD_LOOKUP_NS


def test_contention_inflates_tail_under_load(setup):
    eng, server, scoring, _library, requests = setup
    ranker = SoftwareRanker(server, scoring)

    def batch(count):
        def one(request):
            yield from ranker.score_request(request)

        ranker.latencies_ns.clear()
        procs = [
            eng.process(one(requests[i % len(requests)])) for i in range(count)
        ]
        eng.run_until(AllOf(eng, procs))
        return sorted(ranker.latencies_ns)

    light = batch(2)
    heavy = batch(48)  # 4x oversubscribed on 12 cores
    # Queueing + contention: the heavy tail blows out far more than 4x.
    assert heavy[-1] > light[-1] * 3.0
    assert heavy[len(heavy) // 2] > light[len(light) // 2]


def test_deterministic_given_seed():
    def run_once():
        eng = Engine(seed=77)
        pod = Pod(eng, topology=TorusTopology(width=2, height=2))
        library = ModelLibrary.default(scale=0.05)
        ranker = SoftwareRanker(pod.server_at((0, 0)), ScoringEngine(library))
        request = TraceGenerator(seed=5).request()

        def one():
            result = yield from ranker.score_request(request)
            return result

        proc = eng.process(one())
        eng.run_until(proc)
        return proc.value

    assert run_once() == run_once()
