"""Unit tests for individual ranking stage roles via the loopback rig."""

import pytest

from repro.core import LoopbackHarness
from repro.ranking.engine import ScoringEngine
from repro.ranking.models import ModelLibrary
from repro.ranking.stages import RankingPayload
from repro.shell.messages import Packet, PacketKind
from repro.shell.router import Port
from repro.sim import Engine
from repro.workloads import TraceGenerator


@pytest.fixture(scope="module")
def library():
    return ModelLibrary.default(scale=0.03)


@pytest.fixture(scope="module")
def pool():
    gen = TraceGenerator(seed=71)
    return [gen.request(target_size=4_000) for _ in range(4)]


def make_harness(stage, library, pool, seed=51):
    eng = Engine(seed=seed)
    scoring = ScoringEngine(library)
    for request in pool:
        scoring.score(request.document, library[request.document.model_id])
    return eng, LoopbackHarness(eng, stage, scoring)


def roundtrip(eng, harness, request):
    from repro.host.slots import SlotLease, shared_slot_allocator

    server = harness.stage_server
    (slot_id,) = shared_slot_allocator(server).acquire(1, owner="test")
    lease = SlotLease(server, slot_id)
    out = []

    def thread():
        payload = RankingPayload(document=request.document)
        response = yield from lease.request(
            dst=(0, 0), size_bytes=request.size_bytes, payload=payload
        )
        out.append(response)

    eng.process(thread())
    eng.run()
    return out[0] if out else None


def test_fe_stage_extracts_features(library, pool):
    eng, harness = make_harness("fe", library, pool)
    response = roundtrip(eng, harness, pool[0])
    assert response is not None
    assert response.payload.features  # FE filled the feature dict
    assert harness.role.docs_processed == 1


def test_ffe1_stage_merges_ffe_values(library, pool):
    eng, harness = make_harness("ffe1", library, pool)
    response = roundtrip(eng, harness, pool[0])
    assert response.payload.ffe_merged is not None
    assert len(response.payload.ffe_merged) > 0


def test_compress_stage_packs_vector(library, pool):
    eng, harness = make_harness("compress", library, pool)
    response = roundtrip(eng, harness, pool[1])
    model = library[pool[1].document.model_id]
    assert response.payload.packed is not None
    assert len(response.payload.packed) == len(model.compression)


def test_scoring_bank_accumulates_partial(library, pool):
    eng, harness = make_harness("score0", library, pool)
    response = roundtrip(eng, harness, pool[2])
    model = library[pool[2].document.model_id]
    expected = harness.scoring_engine.bank_partial(pool[2].document, model, 0)
    assert response.payload.partial_score == pytest.approx(expected)


def test_score2_finalizes_score(library, pool):
    eng, harness = make_harness("score2", library, pool)
    response = roundtrip(eng, harness, pool[3])
    # Standalone, only bank 2's partial is present — but a score IS set.
    assert response.payload.score is not None


def test_spare_echoes_in_loopback(library, pool):
    eng, harness = make_harness("spare", library, pool)
    response = roundtrip(eng, harness, pool[0])
    assert response is not None
    assert response.kind is PacketKind.RESPONSE


def test_stage_reload_updates_model(library, pool):
    eng, harness = make_harness("ffe0", library, pool)
    role = harness.role
    reload_packet = Packet(
        kind=PacketKind.MODEL_RELOAD,
        src=(1, 0),
        dst=(0, 0),
        size_bytes=64,
        payload=2,
    )

    def inject():
        yield harness.stage_server.shell.router.submit(reload_packet, Port.PCIE)

    eng.process(inject())
    eng.run()
    assert role.current_model_id == 2
    assert role.reloads == 1


def test_stage_service_time_scales_with_tokens(library):
    gen = TraceGenerator(seed=72)
    small = gen.request(target_size=1_000)
    large = gen.request(target_size=30_000)
    eng, harness = make_harness("fe", library, [small, large], seed=52)

    def time_one(request):
        start = eng.now
        roundtrip(eng, harness, request)
        return eng.now - start

    t_small = time_one(small)
    t_large = time_one(large)
    assert t_large > 2.0 * t_small  # FE latency ∝ tuple count (§4.4)
