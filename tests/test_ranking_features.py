"""Tests for the 43 feature machines, layout, and extractor."""

import pytest

from repro.hardware.constants import MAX_DYNAMIC_FEATURES
from repro.ranking.documents import CompressedDocument, HitTuple, StreamHits
from repro.ranking.features import (
    ALL_MACHINES,
    FeatureExtractor,
    FeatureLayout,
    GLOBAL_MACHINES,
    PER_STREAM_MACHINES,
    PER_TERM_MACHINES,
    stream_pass,
)
from repro.workloads import TraceGenerator


def simple_doc():
    # Stream 0: term 0 at positions 10, 20, 21; term 1 at position 30.
    return CompressedDocument(
        doc_id=1,
        doc_length=100,
        num_query_terms=2,
        model_id=0,
        software_features=[(2, 4.5)],
        streams=[
            StreamHits(
                0,
                100,
                [
                    HitTuple(10, 0),
                    HitTuple(10, 0),
                    HitTuple(1, 0),
                    HitTuple(9, 1),
                ],
            )
        ],
    )


def test_there_are_exactly_43_machines():
    assert len(ALL_MACHINES) == 43
    assert len(PER_TERM_MACHINES) == 32
    assert len(PER_STREAM_MACHINES) == 10
    assert len(GLOBAL_MACHINES) == 1
    assert len({m.name for m in ALL_MACHINES}) == 43


def test_layout_fits_4484_slot_budget():
    layout = FeatureLayout()
    assert layout.dynamic_slots <= MAX_DYNAMIC_FEATURES
    assert layout.dynamic_slots == 32 * 128 + 10 * 8 + 1  # 4177


def test_layout_slot_uniqueness():
    layout = FeatureLayout()
    slots = set()
    for machine in PER_TERM_MACHINES:
        for stream in range(8):
            for term in range(16):
                slots.add(layout.per_term_slot(machine.name, stream, term))
    for machine in PER_STREAM_MACHINES:
        for stream in range(8):
            slots.add(layout.per_stream_slot(machine.name, stream))
    slots.add(layout.global_slot("QueryTermCount"))
    assert len(slots) == layout.dynamic_slots


def test_software_slot_above_dynamic_space():
    assert FeatureLayout.software_slot(0) == MAX_DYNAMIC_FEATURES
    with pytest.raises(ValueError):
        FeatureLayout.software_slot(64)


def test_stream_pass_aggregates():
    doc = simple_doc()
    agg = stream_pass(doc.streams[0])
    term0 = agg.terms[0]
    assert term0.count == 3
    assert term0.first_pos == 10
    assert term0.last_pos == 21
    assert term0.min_gap == 1
    assert term0.max_gap == 10
    assert agg.tuple_count == 4
    assert agg.adjacent_pairs == 1


def test_extractor_known_values():
    layout = FeatureLayout()
    extractor = FeatureExtractor(layout)
    values = extractor.extract(simple_doc())
    occurrences = layout.per_term_slot("NumberOfOccurrences", 0, 0)
    assert values[occurrences] == 3.0
    occurrences_t1 = layout.per_term_slot("NumberOfOccurrences", 0, 1)
    assert values[occurrences_t1] == 1.0
    first = layout.per_term_slot("FirstOccurrence", 0, 0)
    assert values[first] == pytest.approx(0.1)
    coverage = layout.per_stream_slot("StreamCoverage", 0)
    assert values[coverage] == pytest.approx(2 / 16)
    qterms = layout.global_slot("QueryTermCount")
    assert values[qterms] == pytest.approx(2 / 16)
    sw = FeatureLayout.software_slot(2)
    assert values[sw] == 4.5


def test_extractor_emits_only_nonzero():
    extractor = FeatureExtractor()
    values = extractor.extract(simple_doc())
    assert all(v != 0.0 for v in values.values())


def test_extractor_deterministic_on_trace():
    gen = TraceGenerator(seed=11)
    request = gen.request()
    a = FeatureExtractor().extract(request.document)
    b = FeatureExtractor().extract(request.document)
    assert a == b
    assert len(a) > 50  # realistic docs light up many features


def test_machines_tolerate_empty_streams():
    doc = CompressedDocument(
        doc_id=2,
        doc_length=10,
        num_query_terms=1,
        model_id=0,
        software_features=[],
        streams=[StreamHits(0, 10, [])],
    )
    values = FeatureExtractor().extract(doc)
    # Stream-level constants still fire (length), term features do not.
    assert values  # StreamLength is non-zero
