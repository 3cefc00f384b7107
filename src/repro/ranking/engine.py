"""The shared scoring engine: one functional evaluator for both paths.

The paper's implementation "produces results that are identical to
software"; we guarantee the same property by construction — the FPGA
roles and the software baseline call the *same* engine.  Results are
cached per (document, model) so throughput experiments that re-inject
a pool of documents pay the functional cost once (the timing models
are what the experiments measure).
"""

from __future__ import annotations

import collections

from repro.ranking.documents import CompressedDocument
from repro.ranking.features import FeatureExtractor, FeatureLayout
from repro.ranking.ffe.processor import FfeProcessor
from repro.ranking.models import ModelLibrary, RankingModel


class _LruCache:
    """A small bounded cache (documents cycle through benchmarks)."""

    CAPACITY = 8_192

    def __init__(self):
        self._data: collections.OrderedDict = collections.OrderedDict()

    def get(self, key):
        if key in self._data:
            self._data.move_to_end(key)
            return self._data[key]
        return None

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.CAPACITY:
            self._data.popitem(last=False)


class ScoringEngine:
    """Functional evaluation with caching."""

    def __init__(self, library: ModelLibrary):
        self.library = library
        self.layout = FeatureLayout()
        self.extractor = FeatureExtractor(self.layout)
        self._feature_cache = _LruCache()
        self._ffe_cache = _LruCache()
        self._pack_cache = _LruCache()

    # -- functional pipeline -------------------------------------------------

    def features(self, document: CompressedDocument) -> dict:
        """FE output: sparse features incl. software-computed ones."""
        cached = self._feature_cache.get(document.doc_id)
        if cached is None:
            cached = self.extractor.extract(document)
            self._feature_cache.put(document.doc_id, cached)
        return cached

    def ffe_values(self, document: CompressedDocument, model: RankingModel) -> dict:
        """Features merged with metafeatures and FFE results."""
        key = (document.doc_id, model.model_id)
        cached = self._ffe_cache.get(key)
        if cached is None:
            merged = dict(self.features(document))
            stage0 = FfeProcessor(model.ffe_stage0).evaluate_only(merged)
            merged.update(stage0)
            stage1 = FfeProcessor(model.ffe_stage1).evaluate_only(merged)
            merged.update(stage1)
            cached = merged
            self._ffe_cache.put(key, cached)
        return cached

    def packed(self, document: CompressedDocument, model: RankingModel) -> list:
        """The Compression stage's dense vector."""
        key = (document.doc_id, model.model_id)
        cached = self._pack_cache.get(key)
        if cached is None:
            cached = model.compression.pack(self.ffe_values(document, model))
            self._pack_cache.put(key, cached)
        return cached

    def bank_partial(
        self, document: CompressedDocument, model: RankingModel, bank: int
    ) -> float:
        return model.scorer.evaluate_bank(bank, self.packed(document, model))

    def score(self, document: CompressedDocument, model: RankingModel) -> float:
        """The full pipeline score (what software computes directly)."""
        return model.scorer.evaluate(self.packed(document, model))

    def model_for(self, document: CompressedDocument) -> RankingModel:
        return self.library[document.model_id]
