"""Tests for the tree scorer, compression, models, and scoring engine."""

import pytest

from repro.ranking.compression import CompressionMap
from repro.ranking.engine import ScoringEngine
from repro.ranking.models import ModelLibrary, synthesize_model
from repro.ranking.scoring import BoostedTreeScorer, DecisionTree, TreeNode
from repro.workloads import TraceGenerator


def leaf(value):
    return TreeNode(value=value)


def simple_tree():
    # if packed[0] <= 1.0: 0.5 else (if packed[1] <= 2.0: -1.0 else 2.0)
    return DecisionTree(
        TreeNode(
            feature=0,
            threshold=1.0,
            left=leaf(0.5),
            right=TreeNode(feature=1, threshold=2.0, left=leaf(-1.0), right=leaf(2.0)),
        )
    )


def test_tree_evaluation_paths():
    tree = simple_tree()
    assert tree.evaluate([0.5, 0.0]) == 0.5
    assert tree.evaluate([1.5, 1.0]) == -1.0
    assert tree.evaluate([1.5, 3.0]) == 2.0


def test_tree_out_of_range_feature_reads_zero():
    tree = DecisionTree(
        TreeNode(feature=10, threshold=1.0, left=leaf(1.0), right=leaf(-1.0))
    )
    assert tree.evaluate([]) == 1.0  # 0.0 <= 1.0


def test_tree_node_count_and_depth():
    tree = simple_tree()
    assert tree.node_count() == 5
    assert tree.depth() == 3


def test_scorer_banks_partition_trees():
    trees = [simple_tree() for _ in range(10)]
    scorer = BoostedTreeScorer(trees)
    bank_sizes = [len(scorer.bank(i)) for i in range(3)]
    assert sum(bank_sizes) == 10
    assert bank_sizes == [4, 3, 3]  # round-robin


def test_bank_partials_sum_to_full_score():
    trees = [simple_tree() for _ in range(7)]
    scorer = BoostedTreeScorer(trees, learning_rate=0.25)
    packed = [1.5, 3.0]
    total = sum(scorer.evaluate_bank(i, packed) for i in range(3))
    assert total == pytest.approx(scorer.evaluate(packed))


def test_scorer_validation():
    with pytest.raises(ValueError):
        BoostedTreeScorer([])
    with pytest.raises(ValueError):
        BoostedTreeScorer([simple_tree()]).bank(3)
    with pytest.raises(ValueError):
        BoostedTreeScorer([simple_tree()]).evaluate_bank(-1, [0.0])


def test_decision_node_without_feature_rejected_at_build():
    # Left at the default feature=-1, the node would read packed[-1].
    headless = TreeNode(threshold=0.5, left=leaf(1.0), right=leaf(-1.0))
    with pytest.raises(ValueError, match="feature"):
        DecisionTree(headless)
    nested = TreeNode(feature=0, threshold=1.0, left=leaf(0.5), right=headless)
    with pytest.raises(ValueError, match="feature"):
        BoostedTreeScorer([simple_tree(), DecisionTree(nested)])


def test_decision_node_with_one_child_rejected_at_build():
    one_sided = TreeNode(feature=0, threshold=0.5, left=leaf(1.0))
    with pytest.raises(ValueError, match="both children"):
        DecisionTree(one_sided)
    nested = TreeNode(
        feature=1,
        threshold=2.0,
        left=leaf(0.5),
        right=TreeNode(feature=0, threshold=0.5, right=leaf(1.0)),
    )
    with pytest.raises(ValueError, match="both children"):
        BoostedTreeScorer([simple_tree(), DecisionTree(nested)])


# --- compression -------------------------------------------------------------


def test_compression_pack_order_and_defaults():
    cmap = CompressionMap([10, 3, 99])
    assert cmap.slots == [3, 10, 99]
    packed = cmap.pack({10: 1.0, 99: 2.0})
    assert packed == [0.0, 1.0, 2.0]
    assert cmap.packed_bytes() == 12
    assert len(cmap) == 3


def test_compression_requires_slots():
    with pytest.raises(ValueError):
        CompressionMap([])


# --- models -----------------------------------------------------------------------


def small_model(model_id=0):
    return synthesize_model(
        model_id,
        f"test-{model_id}",
        metafeatures=6,
        stage1_expressions=40,
        trees=24,
    )


def test_model_synthesis_deterministic():
    a = small_model()
    b = small_model()
    gen = TraceGenerator(seed=8)
    request = gen.request()
    engine_a = ScoringEngine(ModelLibrary([a]))
    engine_b = ScoringEngine(ModelLibrary([b]))
    assert engine_a.score(request.document, a) == engine_b.score(request.document, b)


def test_model_footprint_positive():
    model = small_model()
    fp = model.footprint
    assert fp.fe_bytes > 0
    assert fp.ffe0_bytes > 0 and fp.ffe1_bytes > 0
    assert fp.compression_bytes > 0
    assert len(fp.scoring_bytes) == 3 and all(b > 0 for b in fp.scoring_bytes)
    assert fp.stage_bytes("score1") == fp.scoring_bytes[1]


def test_model_library_default_scaled():
    library = ModelLibrary.default(scale=0.02)
    assert len(library) == 4
    assert sorted(library.models) == [0, 1, 2, 3]
    assert 0 in library


# --- scoring engine ------------------------------------------------------------------


def test_engine_score_is_deterministic_and_cached():
    model = small_model()
    engine = ScoringEngine(ModelLibrary([model]))
    request = TraceGenerator(seed=5).request()
    first = engine.score(request.document, model)
    second = engine.score(request.document, model)
    assert first == second
    assert isinstance(first, float)


def test_engine_bank_partials_match_full_score():
    model = small_model()
    engine = ScoringEngine(ModelLibrary([model]))
    request = TraceGenerator(seed=6).request()
    partials = sum(engine.bank_partial(request.document, model, b) for b in range(3))
    assert partials == pytest.approx(engine.score(request.document, model))


def test_engine_ffe_cycles_cached_and_positive():
    model = small_model()
    engine = ScoringEngine(ModelLibrary([model]))
    c0 = engine.ffe_stage_cycles(model, 0)
    c1 = engine.ffe_stage_cycles(model, 1)
    assert c0 > 0 and c1 > 0
    assert engine.ffe_stage_cycles(model, 0) == c0  # cached


def test_engine_ffe_stage0_outputs_is_the_program_slot_count():
    model = small_model()
    engine = ScoringEngine(ModelLibrary([model]))
    count = engine.ffe_stage0_outputs(model)
    assert count == len(model.ffe_stage0.output_slots()) > 0
    assert engine.ffe_stage0_outputs(model) == count


def test_engine_metafeatures_flow_into_stage1():
    """Stage-1 expressions reading metafeatures must see stage-0 output."""
    model = small_model()
    engine = ScoringEngine(ModelLibrary([model]))
    request = TraceGenerator(seed=7).request()
    merged = engine.ffe_values(request.document, model)
    from repro.ranking.ffe.expr import METAFEATURE_BASE

    metafeature_slots = [
        slot for slot in merged if METAFEATURE_BASE <= slot < (1 << 17)
    ]
    assert metafeature_slots  # stage 0 produced metafeatures
