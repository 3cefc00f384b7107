"""Unit tests for individual ranking stage roles via the loopback rig."""

import pytest

from repro.cluster import ClusterManager
from repro.core import loopback_rig
from repro.fabric import Datacenter, TorusTopology
from repro.host.slots import RequestTimeout, SlotLease, shared_slot_allocator
from repro.ranking.engine import ScoringEngine
from repro.ranking.models import ModelLibrary
from repro.ranking.pipeline import RankingRequestAdapter, ranking_spec
from repro.shell.messages import Packet, PacketKind
from repro.shell.router import Port
from repro.sim import Engine
from repro.sim.units import SEC
from repro.workloads import TraceGenerator


@pytest.fixture(scope="module")
def library():
    return ModelLibrary.default(scale=0.03)


@pytest.fixture(scope="module")
def pool():
    gen = TraceGenerator(seed=71)
    return [gen.request(target_size=4_000) for _ in range(4)]


def make_rig(stage, library, pool, seed=51):
    eng = Engine(seed=seed)
    scoring = ScoringEngine(library)
    for request in pool:
        scoring.score(request.document, library[request.document.model_id])
    return eng, loopback_rig(eng, stage, scoring)


def roundtrip(eng, rig, request, timeout_ns=5 * SEC):
    """One request from the stage's own host (PCIe mode), no host prep;
    returns the response packet, or None on a timeout."""
    server = rig.pod.server_at(rig.head_node)
    return eng.run_until(
        eng.process(
            rig.submit(request, server=server, timeout_ns=timeout_ns, include_prep=False)
        )
    )


def test_fe_stage_extracts_features(library, pool):
    eng, rig = make_rig("fe", library, pool)
    response = roundtrip(eng, rig, pool[0])
    assert response is not None
    assert response.payload.features  # FE filled the feature dict
    assert rig.stage_role("fe").docs_processed == 1


def test_ffe1_stage_merges_ffe_values(library, pool):
    eng, rig = make_rig("ffe1", library, pool)
    response = roundtrip(eng, rig, pool[0])
    assert response.payload.ffe_merged is not None
    assert len(response.payload.ffe_merged) > 0


def test_compress_stage_packs_vector(library, pool):
    eng, rig = make_rig("compress", library, pool)
    response = roundtrip(eng, rig, pool[1])
    model = library[pool[1].document.model_id]
    assert response.payload.packed is not None
    assert len(response.payload.packed) == len(model.compression)


def test_scoring_bank_accumulates_partial(library, pool):
    eng, rig = make_rig("score0", library, pool)
    response = roundtrip(eng, rig, pool[2])
    model = library[pool[2].document.model_id]
    expected = rig.stage_role("score0").engine_ref.bank_partial(pool[2].document, model, 0)
    assert response.payload.partial_score == pytest.approx(expected)


def test_score2_finalizes_score(library, pool):
    eng, rig = make_rig("score2", library, pool)
    response = roundtrip(eng, rig, pool[3])
    # Standalone, only bank 2's partial is present — but a score IS set.
    assert response.payload.score is not None


def test_spare_echoes_in_loopback(library, pool):
    eng, rig = make_rig("spare", library, pool)
    response = roundtrip(eng, rig, pool[0])
    assert response is not None
    assert response.kind is PacketKind.RESPONSE
    assert response.payload.document is pool[0].document  # echoed as sent


def test_spare_drops_a_request_in_a_ranking_ring(library, pool):
    """As a ranking ring's spare image the role only forwards router
    traffic: a request addressed to it gets no response."""
    eng = Engine(seed=53)
    manager = ClusterManager(
        Datacenter(eng, num_pods=1, topology=TorusTopology(width=2, height=8))
    )
    ring = manager.apply(ranking_spec(ScoringEngine(library))).deployments[0]
    (spare_node,) = ring.assignment.spare_nodes
    server = manager.datacenter.pod(0).server_at(spare_node)
    (slot_id,) = shared_slot_allocator(server).acquire(1, owner="test")
    lease = SlotLease(server, slot_id)
    adapter = RankingRequestAdapter()
    request = eng.process(
        lease.request(
            dst=spare_node,
            size_bytes=adapter.size_of(pool[0]),
            payload=adapter.payload_for(pool[0]),
            timeout_ns=1 * SEC,
        )
    )
    with pytest.raises(RequestTimeout):
        eng.run_until(request)


def test_stage_reload_updates_model(library, pool):
    eng, rig = make_rig("ffe0", library, pool)
    role = rig.stage_role("ffe0")
    reload_packet = Packet(
        kind=PacketKind.MODEL_RELOAD,
        src=(1, 0),
        dst=(0, 0),
        size_bytes=64,
        payload=2,
    )

    def inject():
        yield rig.pod.server_at(rig.head_node).shell.router.submit(reload_packet, Port.PCIE)

    eng.process(inject())
    eng.run()
    assert role.current_model_id == 2
    assert role.reloads == 1


def test_stage_service_time_scales_with_tokens(library):
    gen = TraceGenerator(seed=72)
    small = gen.request(target_size=1_000)
    large = gen.request(target_size=30_000)
    eng, rig = make_rig("fe", library, [small, large], seed=52)

    def time_one(request):
        start = eng.now
        roundtrip(eng, rig, request)
        return eng.now - start

    t_small = time_one(small)
    t_large = time_one(large)
    assert t_large > 2.0 * t_small  # FE latency ∝ tuple count (§4.4)
