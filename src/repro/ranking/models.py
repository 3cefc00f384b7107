"""Ranking models and the model library (§4.3).

"There are many different sets of features, free forms, and scorers.
We call these different sets *models*.  Different models are selected
based on each query, and can vary for language (e.g. Spanish, English,
Chinese), query type, or for trying out experimental models."

A :class:`RankingModel` bundles: the two FFE stage programs (stage 0
computes *metafeatures* — the paper's mechanism for splitting the
longest expressions across FPGAs — consumed by stage 1), the
compression map, and the three-bank tree scorer.  Models synthesize
deterministically from a seed, and report the per-stage memory
footprints that drive Model Reload timing (up to 250 µs, §4.3).
"""

from __future__ import annotations

import collections.abc
import dataclasses
import random

from repro.ranking.compression import CompressionMap
from repro.ranking.features import (
    FeatureLayout,
    MAX_SW_FEATURES,
    PER_STREAM_MACHINES,
    PER_TERM_MACHINES,
)
from repro.ranking.documents import MAX_QUERY_TERMS, MAX_STREAMS
from repro.ranking.ffe import (
    BinOp,
    Const,
    Expr,
    Feature,
    FfeCompiler,
    FfeProgram,
    IfThenElse,
    Metafeature,
    UnOp,
    assemble,
)
from repro.ranking.ffe.expr import METAFEATURE_BASE
from repro.ranking.scoring import (
    BoostedTreeScorer,
    DecisionTree,
    TreeNode,
)
from repro.sim.rng import RngStreams

# FFE results live above metafeatures in the slot space.
FFE_RESULT_BASE = 1 << 17
TREE_DEPTH = 6  # depth of every synthetic model's decision trees


@dataclasses.dataclass
class ModelFootprint:
    """Bytes each pipeline stage reloads from DRAM on a model switch."""

    fe_bytes: int
    ffe0_bytes: int
    ffe1_bytes: int
    compression_bytes: int
    scoring_bytes: tuple  # one per bank

    def stage_bytes(self, stage: str) -> int:
        if stage == "fe":
            return self.fe_bytes
        if stage == "ffe0":
            return self.ffe0_bytes
        if stage == "ffe1":
            return self.ffe1_bytes
        if stage == "compress":
            return self.compression_bytes
        if stage.startswith("score"):
            return self.scoring_bytes[int(stage[-1])]
        return 0


@dataclasses.dataclass
class RankingModel:
    """One complete model: FFE programs + compression + scorer."""

    model_id: int
    name: str
    language: str
    ffe_stage0: FfeProgram  # emits metafeatures
    ffe_stage1: FfeProgram  # emits final FFE values
    compression: CompressionMap
    scorer: BoostedTreeScorer
    footprint: ModelFootprint = None  # computed in __post_init__

    def __post_init__(self) -> None:
        if self.footprint is None:
            self.footprint = ModelFootprint(
                fe_bytes=64 * 1024,  # per-model FE parameter tables
                ffe0_bytes=8 * self.ffe_stage0.instruction_count,
                ffe1_bytes=8 * self.ffe_stage1.instruction_count,
                compression_bytes=self.compression.table_bytes(),
                scoring_bytes=tuple(
                    12 * self.scorer.bank_node_count(i) for i in range(3)
                ),
            )


class _ExpressionSynthesizer:
    """Deterministic random FFE expressions over the feature space."""

    def __init__(self, rng: random.Random, layout: FeatureLayout):
        self.rng = rng
        self.layout = layout

    def feature_ref(self) -> Expr:
        roll = self.rng.random()
        if roll < 0.85:
            machine = self.rng.choice(PER_TERM_MACHINES)
            slot = self.layout.per_term_slot(
                machine.name,
                self.rng.randrange(MAX_STREAMS),
                self.rng.randrange(MAX_QUERY_TERMS),
            )
        elif roll < 0.95:
            machine = self.rng.choice(PER_STREAM_MACHINES)
            slot = self.layout.per_stream_slot(
                machine.name, self.rng.randrange(MAX_STREAMS)
            )
        else:
            slot = FeatureLayout.software_slot(self.rng.randrange(MAX_SW_FEATURES))
        return Feature(slot)

    def expression(self, depth: int, metafeature_pool: int = 0) -> Expr:
        if depth <= 0:
            roll = self.rng.random()
            if roll < 0.15:
                return Const(round(self.rng.uniform(-4.0, 4.0), 3))
            if metafeature_pool and roll < 0.30:
                return Metafeature(self.rng.randrange(metafeature_pool))
            return self.feature_ref()
        roll = self.rng.random()
        if roll < 0.62:
            op = self.rng.choice(["add", "sub", "mul", "mul", "add"])
            return BinOp(
                op,
                self.expression(depth - 1, metafeature_pool),
                self.expression(depth - 1, metafeature_pool),
            )
        if roll < 0.74:
            op = self.rng.choice(["div", "pow", "min", "max"])
            return BinOp(
                op,
                self.expression(depth - 1, metafeature_pool),
                self.expression(depth - 2, metafeature_pool),
            )
        if roll < 0.88:
            op = self.rng.choice(["ln", "exp", "abs", "neg"])
            return UnOp(op, self.expression(depth - 1, metafeature_pool))
        return IfThenElse(
            cmp=self.rng.choice(["lt", "le", "eq"]),
            left=self.expression(depth - 2, metafeature_pool),
            right=Const(round(self.rng.uniform(0.0, 4.0), 3)),
            then=self.expression(depth - 1, metafeature_pool),
            orelse=self.expression(depth - 2, metafeature_pool),
        )


def synthesize_model(
    model_id: int,
    name: str,
    language: str = "en",
    metafeatures: int = 48,
    stage1_expressions: int = 1_200,
    trees: int = 600,
) -> RankingModel:
    """Build a deterministic synthetic model of realistic proportions.

    The defaults give "thousands of FFEs" across the two stages and a
    tree ensemble whose three banks dominate scoring-FPGA RAM, matching
    the paper's qualitative description.
    """
    rng = RngStreams(model_id * 7919 + 13).stream(f"model:{model_id}")
    synth = _ExpressionSynthesizer(rng, FeatureLayout())
    compiler = FfeCompiler()

    # Metafeatures: the deepest expressions, computed upstream (§4.5 —
    # "the longest latency expressions are split across multiple FPGAs").
    meta_compiled = [
        compiler.compile(synth.expression(depth=5), METAFEATURE_BASE + i)
        for i in range(metafeatures)
    ]
    # Balance the two FFE FPGAs: stage 0 carries the metafeatures plus
    # half the bulk; stage 1 the other half.  Stage-0 bulk expressions
    # must not read metafeatures (they compute in the same pass); the
    # stage-1 half may — that is the point of the split.
    half = stage1_expressions // 2
    bulk_compiled = [
        compiler.compile(
            synth.expression(
                depth=rng.choice([1, 2, 2, 3, 3, 4]),
                metafeature_pool=0 if i < half else metafeatures,
            ),
            FFE_RESULT_BASE + i,
        )
        for i in range(stage1_expressions)
    ]
    ffe_stage0 = assemble(meta_compiled + bulk_compiled[:half])
    ffe_stage1 = assemble(bulk_compiled[half:])

    # The scorer reads raw features, software features and FFE results.
    candidate_slots = (
        [synth.feature_ref().slot for _ in range(600)]
        + [FFE_RESULT_BASE + rng.randrange(stage1_expressions) for _ in range(600)]
        + [METAFEATURE_BASE + i for i in range(metafeatures)]
    )
    used = sorted(set(candidate_slots))
    compression = CompressionMap(used)

    def make_tree(depth: int) -> TreeNode:
        if depth == 0 or rng.random() < 0.12:
            return TreeNode(value=round(rng.uniform(-1.0, 1.0), 4))
        return TreeNode(
            feature=rng.randrange(len(compression)),
            threshold=round(rng.uniform(-2.0, 6.0), 3),
            left=make_tree(depth - 1),
            right=make_tree(depth - 1),
        )

    scorer = BoostedTreeScorer(
        [DecisionTree(make_tree(TREE_DEPTH)) for _ in range(trees)],
        learning_rate=0.1,
    )
    return RankingModel(
        model_id=model_id,
        name=name,
        language=language,
        ffe_stage0=ffe_stage0,
        ffe_stage1=ffe_stage1,
        compression=compression,
        scorer=scorer,
    )


class ModelLibrary:
    """The models a deployment serves, keyed by model id."""

    def __init__(self, models: collections.abc.Iterable[RankingModel]):
        self.models = {model.model_id: model for model in models}
        if not self.models:
            raise ValueError("model library cannot be empty")

    def __getitem__(self, model_id: int) -> RankingModel:
        return self.models[model_id]

    def __contains__(self, model_id: int) -> bool:
        return model_id in self.models

    def __len__(self) -> int:
        return len(self.models)

    @classmethod
    def default(cls, scale: float = 1.0) -> "ModelLibrary":
        """Four production-flavoured models (three languages + one
        experimental), scaled by ``scale`` for cheaper test runs."""

        def scaled(n: int) -> int:
            return max(8, int(n * scale))

        specs = [
            (0, "en-main", "en"),
            (1, "es-main", "es"),
            (2, "zh-main", "zh"),
            (3, "en-experimental", "en"),
        ]
        return cls(
            synthesize_model(
                model_id,
                name,
                language,
                metafeatures=scaled(48),
                stage1_expressions=scaled(1_200),
                trees=scaled(600),
            )
            for model_id, name, language in specs
        )
