"""Tests for the FFE stack: AST, compiler, assembler, processor."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ranking.ffe import (
    BinOp,
    Const,
    Feature,
    FfeCompiler,
    FfeProcessor,
    IfThenElse,
    Metafeature,
    Opcode,
    UnOp,
    assemble,
)
from repro.ranking.ffe.compiler import CompileError
from repro.ranking.ffe.assembler import cluster_of

compiler = FfeCompiler()


def run_single(expr, features=None, slot=0):
    """Compile one expression, run it alone, return its output value."""
    program = assemble([compiler.compile(expr, slot)], core_count=1, threads_per_core=1)
    result = FfeProcessor(program).execute(features or {})
    return result.outputs[slot], result


# --- functional equivalence -----------------------------------------------------


def test_constant():
    value, _ = run_single(Const(3.5))
    assert value == 3.5


def test_feature_read_and_default_zero():
    value, _ = run_single(Feature(7), {7: 2.25})
    assert value == 2.25
    value, _ = run_single(Feature(8), {7: 2.25})
    assert value == 0.0


def test_arithmetic():
    expr = (Feature(0) + Const(2.0)) * (Feature(1) - Const(1.0))
    value, _ = run_single(expr, {0: 3.0, 1: 5.0})
    assert value == (3.0 + 2.0) * (5.0 - 1.0)


def test_divide_by_zero_is_hardware_safe():
    value, _ = run_single(Feature(0) / Feature(1), {0: 5.0, 1: 0.0})
    assert value == 0.0


def test_ln_of_nonpositive_is_zero():
    value, _ = run_single(UnOp("ln", Const(-3.0)))
    assert value == 0.0
    value, _ = run_single(UnOp("ln", Const(math.e)))
    assert value == pytest.approx(1.0)


def test_pow_expansion_matches_semantics():
    expr = BinOp("pow", Feature(0), Const(2.5))
    value, _ = run_single(expr, {0: 3.0})
    assert value == pytest.approx(3.0**2.5)
    # pow(0, x) must be 0, not exp(x*ln(0)).
    value, _ = run_single(expr, {0: 0.0})
    assert value == 0.0


def test_idiv_and_mod_expansions():
    value, _ = run_single(BinOp("idiv", Const(17.0), Const(5.0)))
    assert value == 3.0
    value, _ = run_single(BinOp("mod", Const(17.0), Const(5.0)))
    assert value == pytest.approx(2.0)


def test_conditional_predication():
    expr = IfThenElse("lt", Feature(0), Const(5.0), Const(100.0), Const(-100.0))
    assert run_single(expr, {0: 3.0})[0] == 100.0
    assert run_single(expr, {0: 7.0})[0] == -100.0


def test_metafeature_reads_upstream_slot():
    from repro.ranking.ffe.expr import METAFEATURE_BASE

    expr = Metafeature(4) + Const(1.0)
    value, _ = run_single(expr, {METAFEATURE_BASE + 4: 9.0})
    assert value == 10.0


# Random-expression strategy for the equivalence property test.
def expr_strategy(depth=3):
    leaf = st.one_of(
        st.builds(Const, st.floats(-8, 8, allow_nan=False, width=16)),
        st.builds(Feature, st.integers(0, 9)),
    )
    if depth == 0:
        return leaf
    sub = expr_strategy(depth - 1)
    return st.one_of(
        leaf,
        st.builds(
            BinOp,
            st.sampled_from(["add", "sub", "mul", "div", "min", "max", "pow"]),
            sub,
            sub,
        ),
        st.builds(UnOp, st.sampled_from(["ln", "exp", "neg", "abs", "ftoi"]), sub),
        st.builds(
            IfThenElse, st.sampled_from(["lt", "le", "eq"]), sub, sub, sub, sub
        ),
    )


@settings(max_examples=150, deadline=None)
@given(
    expr=expr_strategy(3),
    feature_values=st.lists(st.floats(-10, 10, allow_nan=False, width=16), min_size=10, max_size=10),
)
def test_compiled_matches_ast_evaluation(expr, feature_values):
    """Property: the compiled ISA reproduces AST semantics exactly."""
    features = dict(enumerate(feature_values))
    expected = expr.evaluate(features)
    actual, _ = run_single(expr, features)
    if math.isinf(expected) or math.isinf(actual):
        assert math.isinf(expected) == math.isinf(actual)
    else:
        assert actual == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_compiler_expands_pow_into_primitives():
    compiled = compiler.compile(BinOp("pow", Feature(0), Feature(1)), 0)
    ops = {instr.op for instr in compiled.instructions}
    assert Opcode.LN in ops and Opcode.EXP in ops and Opcode.MUL in ops


def test_constant_folding():
    compiled = compiler.compile(BinOp("add", Const(2.0), Const(3.0)), 0)
    # One LDC plus the RET: the add happened at compile time.
    assert [i.op for i in compiled.instructions] == [Opcode.LDC, Opcode.RET]
    assert compiled.instructions[0].imm == 5.0


def test_register_overflow_raises():
    """A right-nested comb holds one live register per open level;
    past 32 levels the allocator must refuse and suggest metafeatures."""
    expr = Feature(0)
    for i in range(40):
        expr = BinOp("add", Feature(i % 10), expr)  # a + (b + (c + ...))
    with pytest.raises(CompileError):
        compiler.compile(expr, 0)


def test_left_leaning_chain_fits_registers():
    """((a + b) + c) + ... frees registers as it goes - no overflow."""
    expr = Feature(0)
    for i in range(200):
        expr = BinOp("add", expr, Feature(i % 10))
    compiled = compiler.compile(expr, 0)
    assert compiled.instruction_count > 200


# --- assembler -------------------------------------------------------------------


def compiled_with_latency(latency, slot):
    """Fabricate a compiled expression with a given expected latency."""
    expr = Const(1.0)
    for _ in range(latency):
        expr = BinOp("add", expr, Const(1.0))
    return compiler.compile(expr, slot)


def test_assembler_longest_to_slot0():
    exprs = [compiled_with_latency(n, slot=n) for n in (1, 5, 10, 2)]
    program = assemble(exprs, core_count=2, threads_per_core=2)
    # Longest (slot id 10) lands on core 0 thread 0.
    assert program.thread(0, 0).expressions[0].output_slot == 10
    assert program.thread(1, 0).expressions[0].output_slot == 5
    assert program.thread(0, 1).expressions[0].output_slot == 2
    assert program.thread(1, 1).expressions[0].output_slot == 1


def test_assembler_remainder_appends_round_robin():
    exprs = [compiled_with_latency(10 - n, slot=n) for n in range(6)]
    program = assemble(exprs, core_count=2, threads_per_core=2)
    assert sum(len(thread.expressions) for thread in program.threads) == 6
    # 4 slots filled first, then 2 appended starting at slot 0.
    assert len(program.thread(0, 0).expressions) == 2
    assert len(program.thread(1, 0).expressions) == 2
    assert len(program.thread(0, 1).expressions) == 1
    assert len(program.thread(1, 1).expressions) == 1


def test_assembler_validation():
    with pytest.raises(ValueError):
        assemble([], core_count=0)


def test_cluster_mapping():
    assert cluster_of(0) == 0
    assert cluster_of(5) == 0
    assert cluster_of(6) == 1
    assert cluster_of(59) == 9


# --- processor timing -------------------------------------------------------------


def test_multithreading_hides_complex_latency():
    """4 threads on one core beat 1 thread running the same 4 exprs."""
    def heavy(slot):
        return compiler.compile(
            UnOp("ln", BinOp("div", Feature(0), Const(3.0))), slot
        )

    exprs = [heavy(i) for i in range(4)]
    four_threads = assemble(exprs, core_count=1, threads_per_core=4)
    one_thread = assemble(exprs, core_count=1, threads_per_core=1)
    t4 = FfeProcessor(four_threads).execute({0: 5.0})
    t1 = FfeProcessor(one_thread).execute({0: 5.0})
    assert t4.outputs == t1.outputs
    assert t4.cycles < t1.cycles  # latency hiding


def test_complex_block_contention_within_cluster():
    """Six cores sharing one complex block serialize their divides."""
    def divider(slot):
        return compiler.compile(BinOp("div", Feature(0), Const(2.0)), slot)

    exprs = [divider(i) for i in range(6)]
    shared = assemble(exprs, core_count=6, threads_per_core=1)
    result = FfeProcessor(shared).execute({0: 8.0})
    assert result.complex_ops == 6
    assert result.complex_stall_cycles > 0  # arbitration happened


def test_parallel_cores_scale_throughput():
    def heavy(slot):
        expr = Feature(0)
        for _ in range(20):
            expr = BinOp("mul", expr, Const(1.01))
        return compiler.compile(expr, slot)

    exprs = [heavy(i) for i in range(12)]
    wide = assemble(exprs, core_count=12, threads_per_core=1)
    narrow = assemble(exprs, core_count=1, threads_per_core=1)
    t_wide = FfeProcessor(wide).execute({0: 1.0})
    t_narrow = FfeProcessor(narrow).execute({0: 1.0})
    assert t_wide.cycles * 4 < t_narrow.cycles


def test_execute_and_evaluate_only_agree():
    exprs = [
        compiler.compile(BinOp("mul", Feature(i), Const(2.0)), 100 + i)
        for i in range(10)
    ]
    program = assemble(exprs, core_count=3, threads_per_core=2)
    features = {i: float(i) for i in range(10)}
    timed = FfeProcessor(program).execute(features)
    functional = FfeProcessor(program).evaluate_only(features)
    assert timed.outputs == functional


def test_timing_data_independent():
    exprs = [
        compiler.compile(BinOp("pow", Feature(i), Feature(i + 1)), i)
        for i in range(8)
    ]
    program = assemble(exprs, core_count=2, threads_per_core=4)
    a = FfeProcessor(program).execute({i: 1.0 for i in range(10)})
    b = FfeProcessor(program).execute({i: 123.456 for i in range(10)})
    assert a.cycles == b.cycles  # predication: no data-dependent timing
