"""Integration tests: the full 8-FPGA ranking ring on a pod."""

import pytest

from repro.cluster import ClusterManager
from repro.fabric import Datacenter, Pod, TorusTopology
from repro.ranking.engine import ScoringEngine
from repro.ranking.models import ModelLibrary
from repro.ranking.pipeline import ranking_bitstreams, ranking_spec
from repro.ranking.software_ranker import SoftwareRanker
from repro.ranking.stages import FeatureExtractionRole
from repro.sim import Engine
from repro.workloads import ClosedLoop, OpenLoopInjector, PoissonArrivals, TraceGenerator


def place_ranking(seed, qm_policy="batch"):
    """Ranking (small models) applied to a one-pod 2x8 datacenter;
    returns the engine, the manager, the pod, the placed ring and the
    scoring engine its replicas share."""
    eng = Engine(seed=seed)
    manager = ClusterManager(
        Datacenter(eng, num_pods=1, topology=TorusTopology(width=2, height=8))
    )
    scoring = ScoringEngine(ModelLibrary.default(scale=0.03))
    pipeline = manager.apply(ranking_spec(scoring, qm_policy)).deployments[0]
    return eng, manager, manager.datacenter.pod(0), pipeline, scoring


def request_pool(count, seed, model_mix=None):
    generator = TraceGenerator(seed=seed, model_mix=model_mix)
    return [generator.request() for _ in range(count)]


@pytest.fixture(scope="module")
def deployed():
    """One placed ranking ring (2x8 pod, small models) + request pool."""
    return (*place_ranking(seed=21), request_pool(12, seed=77))


def test_deployment_maps_all_eight_roles(deployed):
    _eng, _manager, pod, pipeline, _scoring, _pool = deployed
    assignment = pipeline.assignment
    names = [spec.name for spec in pipeline.service.roles]
    assert names == ["fe", "ffe0", "ffe1", "compress", "score0", "score1", "score2"]
    assert assignment.node_of("fe") == (0, 0)
    assert assignment.spare_nodes == [(0, 7)]
    fe_role = pipeline.stage_role("fe")
    assert isinstance(fe_role, FeatureExtractionRole)
    assert fe_role.queue_manager is not None


def test_scores_identical_to_software(deployed):
    """The paper's key functional claim: FPGA results == software."""
    eng, manager, pod, _pipeline, scoring, pool = deployed
    injector = OpenLoopInjector(
        eng, manager.endpoint("bing-ranking"), PoissonArrivals(10_000.0), pool[:4]
    )
    stats = eng.run_until(injector.run(4))
    assert stats.completed == 4
    assert stats.timeouts == 0

    software = SoftwareRanker(pod.server_at((1, 4)), scoring)
    for request in pool[:4]:
        model = scoring.library[request.document.model_id]
        expected = scoring.score(request.document, model)

        def score_one(eng, request=request):
            result = yield from software.score_request(request)
            return result

        proc = eng.process(score_one(eng))
        eng.run_until(proc)
        sw_score, _latency = proc.value
        assert sw_score == expected  # bit-identical


def test_pipeline_latency_reasonable(deployed):
    eng, _manager, pod, pipeline, _scoring, pool = deployed
    threads = ClosedLoop(pod.server_at((1, 0)), threads=1)
    stats = eng.run_until(OpenLoopInjector(eng, pipeline, threads, pool[:1]).run(3))
    latencies = stats.latencies_ns
    assert len(latencies) == 3
    # Unloaded round trip: prep + DMA + ring traversal, well under 1 ms.
    assert all(20_000 <= lat <= 1_000_000 for lat in latencies)


def test_stage_counters_advance(deployed):
    _eng, _manager, _pod, pipeline, _scoring, _pool = deployed
    fe = pipeline.stage_role("fe")
    scorer2 = pipeline.stage_role("score2")
    assert fe.docs_processed > 0
    assert scorer2.docs_processed > 0


def test_model_mix_triggers_reloads():
    eng, _manager, pod, pipeline, _scoring = place_ranking(seed=22)
    pool = request_pool(16, seed=5, model_mix={0: 0.5, 2: 0.5})
    threads = ClosedLoop(pod.server_at((1, 1)), threads=2)
    stats = eng.run_until(OpenLoopInjector(eng, pipeline, threads, pool).run(8))
    assert stats.completed == 8
    fe = pipeline.stage_role("fe")
    assert fe.queue_manager.reload_count >= 2  # both models were loaded
    ffe0 = pipeline.stage_role("ffe0")
    assert ffe0.reloads >= 2  # reload command rippled downstream


def test_fifo_policy_reloads_more_than_batch():
    results = {}
    for policy in ("batch", "fifo"):
        eng, _manager, pod, pipeline, _scoring = place_ranking(
            seed=23, qm_policy=policy
        )
        pool = request_pool(24, seed=9, model_mix={0: 0.5, 1: 0.5})
        # Flood the queue manager (no host prep, many threads) so the
        # per-model queues actually build up and batching can pay off.
        threads = ClosedLoop(pod.server_at((1, 2)), threads=12, include_prep=False)
        stats = eng.run_until(OpenLoopInjector(eng, pipeline, threads, pool).run(96))
        assert stats.completed == 96
        results[policy] = pipeline.stage_role("fe").queue_manager.reload_count
    assert results["fifo"] > results["batch"]


def test_ranking_bitstreams_fit_device():
    synthesized = ranking_bitstreams()
    assert set(synthesized) == {
        "fe", "ffe0", "ffe1", "compress", "score0", "score1", "score2", "spare"
    }
    for bitstream, report in synthesized.values():
        assert bitstream.fits(bitstream_device(report))
        assert 0 < report.logic_pct <= 100
        assert 0 < report.ram_pct <= 100


def bitstream_device(report):
    return report.device


def test_software_ranker_latency_grows_under_load():
    eng = Engine(seed=24)
    pod = Pod(eng, topology=TorusTopology(width=2, height=2))
    library = ModelLibrary.default(scale=0.03)
    from repro.ranking.engine import ScoringEngine

    engine_ref = ScoringEngine(library)
    server = pod.server_at((0, 0))
    ranker = SoftwareRanker(server, engine_ref)
    gen_pool = [r for r in __import__("repro.workloads", fromlist=["TraceGenerator"]).TraceGenerator(seed=3).requests(4)]

    def run_batch(count):
        def one(eng, request):
            yield from ranker.score_request(request)

        procs = [
            eng.process(one(eng, gen_pool[i % len(gen_pool)])) for i in range(count)
        ]
        from repro.sim import AllOf

        waiter = AllOf(eng, procs)
        eng.run_until(waiter)

    ranker.latencies_ns.clear()
    run_batch(2)  # light load
    light = sum(ranker.latencies_ns) / len(ranker.latencies_ns)
    ranker.latencies_ns.clear()
    run_batch(36)  # oversubscribed: queueing + contention
    heavy = sum(ranker.latencies_ns) / len(ranker.latencies_ns)
    assert heavy > light * 1.5
