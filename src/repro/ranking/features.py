"""Feature Extraction: 43 parallel feature state machines (§4.4).

The FE stage computes numeric scores for "features" of the query ×
document combination.  The hit vector streams through a Stream
Processing FSM which fans control/data tokens out to 43 unique feature
state machines working in parallel (MISD); a Feature Gathering Network
coalesces their non-zero outputs.  Some features produce one value per
(stream, query-term) pair, some one per stream, some one per request —
up to 4,484 feature slots total.

Functionally, this module is the *reference implementation* shared by
the FPGA role and the software baseline: one streaming pass builds
per-(stream, term) aggregates (the Stream Processing FSM), and each of
the 43 named machines maps aggregates to its feature values (the
parallel FSMs).  Timing is modelled separately in the role.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import math

from repro.hardware.constants import MAX_DYNAMIC_FEATURES
from repro.ranking.documents import (
    CompressedDocument,
    MAX_QUERY_TERMS,
    MAX_STREAMS,
    StreamHits,
)

MAX_SW_FEATURES = 64
SW_FEATURE_BASE = MAX_DYNAMIC_FEATURES  # software features live above HW slots
TOTAL_FEATURE_SPACE = MAX_DYNAMIC_FEATURES + MAX_SW_FEATURES


# --- streaming aggregates (the Stream Processing FSM) -------------------------


@dataclasses.dataclass
class TermAggregate:
    """Single-pass state for one (stream, term) pair."""

    count: int = 0
    first_pos: int = -1
    last_pos: int = -1
    min_gap: int = 1 << 30
    max_gap: int = 0
    gap_sum: int = 0
    gap_sq_sum: float = 0.0
    run_length: int = 0
    best_run: int = 0
    property_sum: int = 0
    weighted_tf: float = 0.0
    capitalized: int = 0
    anchor: int = 0
    first_half: int = 0
    second_half: int = 0
    inverse_pos_sum: float = 0.0
    last_quarter: int = 0
    near_other_term: int = 0
    min_cross_gap: int = 1 << 30
    window_hits: int = 0
    best_window: int = 0
    window_start_pos: int = 0


@dataclasses.dataclass
class StreamAggregate:
    """Single-pass state for one stream."""

    stream_id: int = 0
    length: int = 0
    tuple_count: int = 0
    delta_sum: int = 0
    two_byte_tuples: int = 0
    adjacent_pairs: int = 0
    with_properties: int = 0
    terms: dict = dataclasses.field(default_factory=dict)  # term -> TermAggregate

    def term(self, index: int) -> TermAggregate:
        if index not in self.terms:
            self.terms[index] = TermAggregate()
        return self.terms[index]


def stream_pass(stream: StreamHits) -> StreamAggregate:
    """One pass over a stream's tuples, updating all aggregates.

    This is the Stream Processing FSM: it walks tuples at 1–2 tokens
    per clock on the FPGA; here it produces the aggregate state every
    feature machine reads.
    """
    agg = StreamAggregate(stream_id=stream.stream_id, length=max(stream.length, 1))
    position = 0
    previous_term = -1
    previous_pos = -1
    half = agg.length / 2
    quarter = 3 * agg.length / 4
    for hit in stream.tuples:
        position += hit.delta
        agg.tuple_count += 1
        agg.delta_sum += hit.delta
        if hit.encoded_size == 2:
            agg.two_byte_tuples += 1
        if hit.delta == 1:
            agg.adjacent_pairs += 1
        if hit.properties:
            agg.with_properties += 1
        term = agg.term(hit.term_index)
        if term.first_pos < 0:
            term.first_pos = position
        else:
            gap = position - term.last_pos
            term.min_gap = min(term.min_gap, gap)
            term.max_gap = max(term.max_gap, gap)
            term.gap_sum += gap
            term.gap_sq_sum += float(gap) * gap
        # Windowed density: hits within a trailing 64-token window.
        if position - term.window_start_pos > 64:
            term.window_start_pos = position
            term.window_hits = 0
        term.window_hits += 1
        term.best_window = max(term.best_window, term.window_hits)
        if hit.delta == 1 and previous_term == hit.term_index:
            term.run_length += 1
        else:
            term.run_length = 1
        term.best_run = max(term.best_run, term.run_length)
        term.count += 1
        term.last_pos = position
        term.property_sum += hit.properties
        term.weighted_tf += (1 + (hit.properties & 0xF)) / 16.0
        if hit.properties & 0x1:
            term.capitalized += 1
        if hit.properties & 0x2:
            term.anchor += 1
        if position <= half:
            term.first_half += 1
        else:
            term.second_half += 1
        term.inverse_pos_sum += 1.0 / (1.0 + position)
        if position > quarter:
            term.last_quarter += 1
        if previous_term >= 0 and previous_term != hit.term_index:
            term.near_other_term += 1 if (position - previous_pos) <= 8 else 0
            term.min_cross_gap = min(term.min_cross_gap, position - previous_pos)
        previous_term = hit.term_index
        previous_pos = position
    return agg


# --- the 43 feature machines ---------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FeatureMachine:
    """One of the 43 named state machines.

    ``kind`` determines the output granularity: ``per_term`` machines
    emit one value per (stream, term); ``per_stream`` one per stream;
    ``global`` one per request.
    """

    name: str
    kind: str  # "per_term" | "per_stream" | "global"
    compute: collections.abc.Callable


def _tf(term: TermAggregate) -> float:
    return float(term.count)


PER_TERM_MACHINES = [
    FeatureMachine("NumberOfOccurrences", "per_term", lambda s, t: _tf(t)),
    FeatureMachine(
        "FirstOccurrence", "per_term", lambda s, t: t.first_pos / s.length
    ),
    FeatureMachine("LastOccurrence", "per_term", lambda s, t: t.last_pos / s.length),
    FeatureMachine(
        "MeanGap",
        "per_term",
        lambda s, t: t.gap_sum / (t.count - 1) if t.count > 1 else 0.0,
    ),
    FeatureMachine(
        "MinGap", "per_term", lambda s, t: float(t.min_gap) if t.count > 1 else 0.0
    ),
    FeatureMachine("MaxGap", "per_term", lambda s, t: float(t.max_gap)),
    FeatureMachine(
        "TfIdfApprox",
        "per_term",
        lambda s, t: _tf(t) * math.log(s.length / (_tf(t) + 1.0) + 1.0),
    ),
    FeatureMachine("SaturatingTfK12", "per_term", lambda s, t: _tf(t) / (_tf(t) + 1.2)),
    FeatureMachine("SaturatingTfK20", "per_term", lambda s, t: _tf(t) / (_tf(t) + 2.0)),
    FeatureMachine(
        "Bm25Core",
        "per_term",
        lambda s, t: _tf(t) * 2.2 / (_tf(t) + 1.2 * (0.25 + 0.75 * s.length / 1000.0)),
    ),
    FeatureMachine("NormalizedTf", "per_term", lambda s, t: _tf(t) / s.length),
    FeatureMachine("LogTf", "per_term", lambda s, t: math.log(1.0 + _tf(t))),
    FeatureMachine(
        "PositionSpread",
        "per_term",
        lambda s, t: (t.last_pos - t.first_pos) / s.length,
    ),
    FeatureMachine(
        "EarlyOccurrenceBoost",
        "per_term",
        lambda s, t: math.exp(-t.first_pos / 100.0),
    ),
    FeatureMachine("WindowDensity64", "per_term", lambda s, t: float(t.best_window)),
    FeatureMachine("PropertyWeightedTf", "per_term", lambda s, t: t.weighted_tf),
    FeatureMachine("CapitalizedHits", "per_term", lambda s, t: float(t.capitalized)),
    FeatureMachine("AnchorHits", "per_term", lambda s, t: float(t.anchor)),
    FeatureMachine(
        "TitleBoost",
        "per_term",
        lambda s, t: _tf(t) * (2.0 if s.stream_id == 0 else 0.5),
    ),
    FeatureMachine(
        "FirstHitIsEarly", "per_term", lambda s, t: 1.0 if 0 <= t.first_pos < 10 else 0.0
    ),
    FeatureMachine(
        "GapVariance",
        "per_term",
        lambda s, t: max(
            t.gap_sq_sum / (t.count - 1) - (t.gap_sum / (t.count - 1)) ** 2, 0.0
        )
        if t.count > 1
        else 0.0,
    ),
    FeatureMachine("LongestRun", "per_term", lambda s, t: float(t.best_run)),
    FeatureMachine(
        "MinCrossTermGap",
        "per_term",
        lambda s, t: float(t.min_cross_gap) if t.min_cross_gap < (1 << 30) else 0.0,
    ),
    FeatureMachine("CrossTermCooccur", "per_term", lambda s, t: float(t.near_other_term)),
    FeatureMachine(
        "OrdinalBalance",
        "per_term",
        lambda s, t: (t.first_half - t.second_half) / (_tf(t) + 1.0),
    ),
    FeatureMachine(
        "GapLogSum",
        "per_term",
        lambda s, t: math.log(1.0 + t.gap_sum) if t.gap_sum else 0.0,
    ),
    FeatureMachine("TfSquared", "per_term", lambda s, t: _tf(t) ** 2),
    FeatureMachine(
        "InverseFirstPosition", "per_term", lambda s, t: 1.0 / (1.0 + t.first_pos)
    ),
    FeatureMachine(
        "HitFraction",
        "per_term",
        lambda s, t: _tf(t) / s.tuple_count if s.tuple_count else 0.0,
    ),
    FeatureMachine("WeightedPositionSum", "per_term", lambda s, t: t.inverse_pos_sum),
    FeatureMachine("LastQuarterHits", "per_term", lambda s, t: float(t.last_quarter)),
    FeatureMachine(
        "PropertySum", "per_term", lambda s, t: t.property_sum / 65536.0
    ),
]

PER_STREAM_MACHINES = [
    FeatureMachine("StreamTupleCount", "per_stream", lambda s: float(s.tuple_count)),
    FeatureMachine("StreamLength", "per_stream", lambda s: float(s.length)),
    FeatureMachine(
        "StreamCoverage",
        "per_stream",
        lambda s: len([t for t in s.terms.values() if t.count]) / MAX_QUERY_TERMS,
    ),
    FeatureMachine(
        "StreamHitDensity", "per_stream", lambda s: s.tuple_count / s.length
    ),
    FeatureMachine(
        "DistinctTermCount", "per_stream", lambda s: float(len(s.terms))
    ),
    FeatureMachine(
        "MaxTermTf",
        "per_stream",
        lambda s: float(max((t.count for t in s.terms.values()), default=0)),
    ),
    FeatureMachine(
        "MeanDelta",
        "per_stream",
        lambda s: s.delta_sum / s.tuple_count if s.tuple_count else 0.0,
    ),
    FeatureMachine(
        "TwoByteTupleFraction",
        "per_stream",
        lambda s: s.two_byte_tuples / s.tuple_count if s.tuple_count else 0.0,
    ),
    FeatureMachine("AdjacencyPairs", "per_stream", lambda s: float(s.adjacent_pairs)),
    FeatureMachine(
        "StreamPropertyRate",
        "per_stream",
        lambda s: s.with_properties / s.tuple_count if s.tuple_count else 0.0,
    ),
]

GLOBAL_MACHINES = [
    FeatureMachine(
        "QueryTermCount", "global", lambda doc: doc.num_query_terms / MAX_QUERY_TERMS
    ),
]

ALL_MACHINES = PER_TERM_MACHINES + PER_STREAM_MACHINES + GLOBAL_MACHINES
assert len(ALL_MACHINES) == 43, f"expected 43 machines, have {len(ALL_MACHINES)}"


class FeatureLayout:
    """Maps (machine, stream, term) to feature-slot indices.

    Per-term machines own ``MAX_STREAMS * MAX_QUERY_TERMS`` slots each,
    per-stream machines ``MAX_STREAMS``, global machines one.  The
    layout fits inside the 4,484-slot dynamic-feature space the paper
    reports (§4.4); software-computed features occupy slots above it.
    """

    def __init__(self) -> None:
        self.bases: dict[str, int] = {}
        cursor = 0
        for machine in PER_TERM_MACHINES:
            self.bases[machine.name] = cursor
            cursor += MAX_STREAMS * MAX_QUERY_TERMS
        for machine in PER_STREAM_MACHINES:
            self.bases[machine.name] = cursor
            cursor += MAX_STREAMS
        for machine in GLOBAL_MACHINES:
            self.bases[machine.name] = cursor
            cursor += 1
        self.dynamic_slots = cursor
        if cursor > MAX_DYNAMIC_FEATURES:
            raise ValueError(
                f"layout needs {cursor} slots, exceeding {MAX_DYNAMIC_FEATURES}"
            )

    def per_term_slot(self, machine: str, stream_id: int, term_index: int) -> int:
        return self.bases[machine] + stream_id * MAX_QUERY_TERMS + term_index

    def per_stream_slot(self, machine: str, stream_id: int) -> int:
        return self.bases[machine] + stream_id

    def global_slot(self, machine: str) -> int:
        return self.bases[machine]

    @staticmethod
    def software_slot(feature_id: int) -> int:
        if not 0 <= feature_id < MAX_SW_FEATURES:
            raise ValueError(f"software feature id {feature_id} out of range")
        return SW_FEATURE_BASE + feature_id


class FeatureExtractor:
    """Runs all 43 machines over a request; shared by HW and SW paths."""

    def __init__(self, layout: FeatureLayout | None = None):
        self.layout = layout or FeatureLayout()

    def extract(self, document: CompressedDocument) -> dict[int, float]:
        """Sparse {slot: value} with only non-zero outputs (§4.4),
        including the request's software-computed features."""
        values: dict[int, float] = {}
        layout = self.layout
        for stream in document.streams:
            agg = stream_pass(stream)
            for machine in PER_TERM_MACHINES:
                for term_index, term_agg in agg.terms.items():
                    if term_index >= MAX_QUERY_TERMS:
                        continue
                    value = machine.compute(agg, term_agg)
                    if value != 0.0:
                        slot = layout.per_term_slot(
                            machine.name, agg.stream_id, term_index
                        )
                        values[slot] = value
            for machine in PER_STREAM_MACHINES:
                value = machine.compute(agg)
                if value != 0.0:
                    values[layout.per_stream_slot(machine.name, agg.stream_id)] = value
        for machine in GLOBAL_MACHINES:
            value = machine.compute(document)
            if value != 0.0:
                values[layout.global_slot(machine.name)] = value
        for feature_id, value in document.software_features:
            if value != 0.0:
                values[FeatureLayout.software_slot(feature_id)] = value
        return values
