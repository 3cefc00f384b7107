"""Full production-geometry integration: the 6x8 pod of 48 servers.

Deploys the ranking service exactly as §2.2/§4 describe — a 6x8 torus
with the pipeline on one 8-node column ring — and exercises traffic
from servers across the pod, plus the FDR-based debugging workflow of
§3.6.
"""

import pytest

from repro.cluster import Deployment
from repro.fabric import Pod
from repro.ranking.engine import ScoringEngine
from repro.ranking.models import ModelLibrary
from repro.ranking.pipeline import RankingRequestAdapter, ranking_service
from repro.sim import AllOf, Engine
from repro.workloads import ClosedLoop, OpenLoopInjector, TraceGenerator


@pytest.fixture(scope="module")
def production_pod():
    eng = Engine(seed=2014)
    pod = Pod(eng)  # the real 6x8
    scoring = ScoringEngine(ModelLibrary.default(scale=0.03))
    # Pinned to column ring 2 (the scheduler would pick ring 0).
    pipeline = Deployment(
        eng, pod, ranking_service(scoring), ring_x=2, adapter=RankingRequestAdapter()
    )
    eng.drive(pipeline.configure())
    return eng, pod, pipeline


def request_pool(count, seed):
    generator = TraceGenerator(seed=seed)
    return [generator.request() for _ in range(count)]


def test_pod_has_production_dimensions(production_pod):
    _eng, pod, _pipeline = production_pod
    assert len(pod.servers) == 48
    assert len(pod.links) == 96
    assert len(pod.assemblies) == 14  # 6 shells of 8 + 8 shells of 6


def test_every_fpga_configured_after_deploy(production_pod):
    _eng, pod, _pipeline = production_pod
    for server in pod.servers.values():
        assert server.fpga.configured_role is not None
        assert server.state.value == "up"


def test_ring_on_column_two(production_pod):
    _eng, _pod, pipeline = production_pod
    assert pipeline.assignment.node_of("fe") == (2, 0)
    assert pipeline.assignment.node_of("score2") == (2, 6)
    assert pipeline.assignment.spare_nodes == [(2, 7)]


def test_far_corner_servers_can_inject(production_pod):
    eng, pod, pipeline = production_pod
    pool = request_pool(6, seed=8)
    injectors = [pod.server_at((0, 0)), pod.server_at((5, 7)), pod.server_at((4, 3))]
    traffic = [
        OpenLoopInjector(eng, pipeline, ClosedLoop(server, threads=2), pool)
        for server in injectors
    ]
    eng.run_until(AllOf(eng, [injector.run(4) for injector in traffic]))
    for injector in traffic:
        assert injector.stats.completed == 4
        assert injector.stats.timeouts == 0


def test_fdr_traces_a_document_through_the_fabric(production_pod):
    """§3.6: the FDR's head/tail flit records reconstruct a packet's
    path across FPGAs for replay debugging."""
    eng, pod, pipeline = production_pod
    pool = request_pool(1, seed=9)
    threads = ClosedLoop(pod.server_at((2, 4)), threads=1)
    stats = eng.run_until(OpenLoopInjector(eng, pipeline, threads, pool).run(1))
    assert stats.completed == 1

    # Find the trace at the FE head's router and follow it.
    fe_server = pod.server_at(pipeline.head_node)
    fe_entries = fe_server.shell.fdr.stream_out()
    assert fe_entries, "FE router recorded nothing"
    trace_ids = {entry.trace_id for entry in fe_entries if entry.kind == "request"}
    assert trace_ids
    trace_id = sorted(trace_ids)[-1]
    # The same trace shows up on downstream stage FPGAs.
    sightings = 0
    for role_name in ("ffe0", "ffe1", "compress", "score0"):
        node = pipeline.assignment.node_of(role_name)
        entries = pod.server_at(node).shell.fdr.entries_for_trace(trace_id)
        sightings += 1 if entries else 0
    assert sightings >= 3
    # Entries carry direction and size for replay.
    sample = fe_entries[-1]
    assert "->" in sample.direction
    assert sample.size_bytes > 0


def test_mean_hop_count_matches_torus_geometry(production_pod):
    _eng, pod, _pipeline = production_pod
    topology = pod.topology
    distances = [
        topology.hop_distance(a, b)
        for a in topology.nodes()
        for b in topology.nodes()
        if a != b
    ]
    mean = sum(distances) / len(distances)
    # 6x8 torus: mean shortest-path ~ (6/4 + 8/4) * small correction.
    assert 3.0 <= mean <= 4.0
    assert max(distances) == 7  # 3 + 4
