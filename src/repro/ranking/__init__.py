"""The Bing ranking application offloaded to the fabric (§4).

Functional pipeline: compressed {document, query} requests flow through
Feature Extraction (43 parallel state machines), two Free-Form
Expression stages (a custom 60-core multithreaded soft processor), a
Compression stage, and a three-FPGA machine-learned scorer, producing a
single float score per document.  A Queue Manager at the pipeline head
batches queries by model to amortize Model Reload.

The **same functional code** backs the FPGA roles and the pure-software
baseline ranker, so scores are bit-identical between the two paths —
mirroring the paper's "results identical to software" property.  Only
the timing models differ.
"""

from repro.ranking.documents import (
    CompressedDocument,
    DocumentCodec,
    HitTuple,
    Query,
    StreamHits,
)
from repro.ranking.features import FeatureExtractor, FeatureLayout
from repro.ranking.models import ModelLibrary, RankingModel
from repro.ranking.scoring import (
    BoostedTreeScorer,
    DecisionTree,
    NeuralScorer,
    TreeNode,
)
from repro.ranking.software_ranker import SoftwareRanker
from repro.ranking.pipeline import ranking_service, ranking_spec

__all__ = [
    "BoostedTreeScorer",
    "CompressedDocument",
    "DecisionTree",
    "DocumentCodec",
    "FeatureExtractor",
    "FeatureLayout",
    "HitTuple",
    "ModelLibrary",
    "NeuralScorer",
    "Query",
    "RankingModel",
    "SoftwareRanker",
    "StreamHits",
    "TreeNode",
    "ranking_service",
    "ranking_spec",
]
