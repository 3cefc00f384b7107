"""Synthetic scoring-request traces.

A :class:`TraceGenerator` produces a deterministic stream of
:class:`ScoringRequest` objects — a query plus a compressed document
whose encoded size follows the Figure 4 distribution, with Zipfian term
popularity and a configurable multi-model mix (for Queue Manager
experiments, §4.3).
"""

from __future__ import annotations

import bisect
import collections.abc
import dataclasses
import random

from repro.ranking.documents import (
    CompressedDocument,
    DocumentCodec,
    HitTuple,
    MAX_STREAMS,
    Query,
    StreamHits,
)
from repro.sim.rng import RngStreams
from repro.workloads.sizes import DocumentSizeDistribution

# Average encoded bytes per hit tuple, used to size documents; tuples
# plus stream/SW-feature overhead average out near this figure.
_APPROX_BYTES_PER_TUPLE = 3.2
_HEADER_OVERHEAD = 22
# Distinct query/document terms; Zipf-distributed hits over them.
_VOCABULARY = 5_000


@dataclasses.dataclass
class ScoringRequest:
    """One {document, query} pair ready for either scoring path."""

    query: Query
    document: CompressedDocument
    encoded: bytes

    @property
    def size_bytes(self) -> int:
        return len(self.encoded)


class ZipfSampler:
    """Zipf(s=1.1) over a finite vocabulary, inverse-CDF sampled."""

    def __init__(self, vocabulary: int, rng: random.Random, s: float = 1.1):
        if vocabulary < 1:
            raise ValueError("vocabulary must be positive")
        self.rng = rng
        weights = [1.0 / (rank**s) for rank in range(1, vocabulary + 1)]
        total = sum(weights)
        self.cdf = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self.cdf.append(acc)

    def sample(self) -> int:
        u = self.rng.random()
        # Clamp: float rounding can leave the final CDF entry below 1.0.
        return min(bisect.bisect_left(self.cdf, u), len(self.cdf) - 1)


class TraceGenerator:
    """Deterministic generator of scoring requests."""

    def __init__(
        self,
        seed: int = 0,
        model_mix: dict[int, float] | None = None,
    ):
        if model_mix is None:
            model_mix = {0: 1.0}
        if not model_mix:
            raise ValueError("model_mix must be non-empty")
        if any(weight <= 0 for weight in model_mix.values()):
            raise ValueError(f"model_mix weights must be positive, got {model_mix}")
        self.rng = RngStreams(seed).stream("trace-generator")
        self.sizes = DocumentSizeDistribution(self.rng)
        self.terms = ZipfSampler(_VOCABULARY, self.rng)
        self.codec = DocumentCodec()
        self.model_mix = dict(model_mix)
        self._model_ids = list(self.model_mix)
        self._model_weights = list(self.model_mix.values())
        self._next_query_id = 0
        self._next_doc_id = 0

    # -- queries -----------------------------------------------------------

    def query(self) -> Query:
        """A query with 1..8 distinct Zipfian terms and a sampled model."""
        count = min(1 + int(self.rng.expovariate(0.45)), 8)
        terms = []
        while len(terms) < count:
            term = self.terms.sample()
            if term not in terms:
                terms.append(term)
        model_id = self.rng.choices(self._model_ids, self._model_weights)[0]
        self._next_query_id += 1
        return Query(
            query_id=self._next_query_id, terms=tuple(terms), model_id=model_id
        )

    # -- documents -----------------------------------------------------------

    def document_for(
        self, query: Query, target_size: int | None = None
    ) -> CompressedDocument:
        """A document whose encoding is near ``target_size`` bytes."""
        target = target_size if target_size is not None else self.sizes.sample()
        sw_count = self.rng.randrange(4, 24)
        software_features = [
            (fid, round(self.rng.random() * 10.0, 3)) for fid in range(sw_count)
        ]
        budget = max(target - _HEADER_OVERHEAD - 6 * sw_count, 8)
        total_tuples = max(1, int(budget / _APPROX_BYTES_PER_TUPLE))
        num_streams = self.rng.randint(3, MAX_STREAMS)
        streams = []
        remaining = total_tuples
        doc_length = max(50, total_tuples * 3)
        for stream_id in range(num_streams):
            share = remaining if stream_id == num_streams - 1 else max(
                1, int(remaining / (num_streams - stream_id) * self.rng.uniform(0.5, 1.5))
            )
            share = min(share, remaining)
            tuples = self._make_tuples(share, len(query.terms))
            streams.append(
                StreamHits(stream_id=stream_id, length=doc_length, tuples=tuples)
            )
            remaining -= share
            if remaining <= 0:
                break
        self._next_doc_id += 1
        return CompressedDocument(
            doc_id=self._next_doc_id,
            doc_length=doc_length,
            num_query_terms=len(query.terms),
            model_id=query.model_id,
            software_features=software_features,
            streams=streams,
        )

    def _make_tuples(self, count: int, num_terms: int) -> list:
        tuples = []
        for _ in range(count):
            delta = int(self.rng.expovariate(1 / 40.0)) + 1
            term_index = self.rng.randrange(num_terms)
            roll = self.rng.random()
            if roll < 0.70:
                tuples.append(HitTuple(min(delta, 1023), min(term_index, 15), 0))
            elif roll < 0.95:
                tuples.append(
                    HitTuple(min(delta * 16, 65_535), term_index, self.rng.randrange(256))
                )
            else:
                tuples.append(
                    HitTuple(
                        min(delta * 256, (1 << 24) - 1),
                        term_index,
                        self.rng.randrange(1 << 16),
                    )
                )
        return tuples

    # -- requests -------------------------------------------------------------

    def request(self, target_size: int | None = None) -> ScoringRequest:
        query = self.query()
        document = self.document_for(query, target_size)
        encoded = self.codec.encode(document)
        return ScoringRequest(query=query, document=document, encoded=encoded)

    def requests(self, count: int) -> collections.abc.Iterator[ScoringRequest]:
        for _ in range(count):
            yield self.request()
