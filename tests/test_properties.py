"""Cross-cutting property tests (hypothesis) on system invariants."""

import math
import unittest.mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import ReservoirSample, percentile
from repro.cluster import ClusterScheduler, InsufficientClusterCapacity, echo_service
from repro.fabric import Datacenter
from repro.fabric.torus import TorusTopology, dor_routes
from repro.ranking import scoring
from repro.ranking.compression import CompressionMap
from repro.ranking.documents import HitTuple
from repro.ranking.engine import ScoringEngine
from repro.ranking.ffe import BinOp, Const, Feature, FfeCompiler, assemble
from repro.ranking.models import ModelLibrary
from repro.ranking.scoring import BoostedTreeScorer, DecisionTree, TreeNode
from repro.shell.router import Port
from repro.sim import Engine, Fifo, RngStreams
from repro.sim.sanitizer import DEFAULT_TIE_SALT
from repro.workloads import TraceGenerator


# --- torus geometry ---------------------------------------------------------------

torus_strategy = st.builds(
    TorusTopology, width=st.integers(2, 8), height=st.integers(2, 10)
)
_OPPOSITE = {
    Port.EAST: Port.WEST,
    Port.WEST: Port.EAST,
    Port.NORTH: Port.SOUTH,
    Port.SOUTH: Port.NORTH,
}


@settings(max_examples=60, deadline=None)
@given(topo=torus_strategy, data=st.data())
def test_neighbor_is_involutive(topo, data):
    """Stepping through a port and back through its opposite returns home."""
    x = data.draw(st.integers(0, topo.width - 1))
    y = data.draw(st.integers(0, topo.height - 1))
    for port in (Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH):
        there = topo.neighbor((x, y), port)
        back = topo.neighbor(there, _OPPOSITE[port])
        assert back == (x, y)


@settings(max_examples=60, deadline=None)
@given(topo=torus_strategy, data=st.data())
def test_hop_distance_symmetric_and_triangle(topo, data):
    def node():
        return (
            data.draw(st.integers(0, topo.width - 1)),
            data.draw(st.integers(0, topo.height - 1)),
        )

    a, b, c = node(), node(), node()
    assert topo.hop_distance(a, b) == topo.hop_distance(b, a)
    assert topo.hop_distance(a, c) <= topo.hop_distance(a, b) + topo.hop_distance(b, c)


@settings(max_examples=40, deadline=None)
@given(topo=torus_strategy, data=st.data())
def test_dor_routes_realize_shortest_paths(topo, data):
    src = (
        data.draw(st.integers(0, topo.width - 1)),
        data.draw(st.integers(0, topo.height - 1)),
    )
    dst = (
        data.draw(st.integers(0, topo.width - 1)),
        data.draw(st.integers(0, topo.height - 1)),
    )
    if src == dst:
        return
    node = src
    hops = 0
    while node != dst:
        node = topo.neighbor(node, dor_routes(topo, node)[dst])
        hops += 1
        assert hops <= topo.width + topo.height
    assert hops == topo.hop_distance(src, dst)


# --- reservoir sorted view ----------------------------------------------------------

_latency = st.one_of(st.floats(0.0, 1e9, allow_nan=False), st.integers(0, 4).map(float))
_reservoir_steps = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.just("append"), st.lists(_latency, min_size=1, max_size=80)),
            st.tuples(st.just("merge"), st.integers(0, 200), _latency),
            st.tuples(st.just("clear")),
        ),
        st.one_of(st.none(), st.floats(0.0, 100.0)),  # then read at this rank
    ),
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(capacity=st.integers(1, 64), steps=_reservoir_steps)
def test_reservoir_reads_match_a_fresh_sort(capacity, steps):
    """Whatever mix of appends, merges (replacements included) and
    clears came before, a read equals the percentile of a fresh sort."""
    with unittest.mock.patch.object(ReservoirSample, "CAPACITY", capacity):
        _check_reservoir_reads(ReservoirSample(), steps)


def _check_reservoir_reads(rs, steps):
    for op, read_pct in steps:
        if op[0] == "append":
            for value in op[1]:
                rs.append(value)
        elif op[0] == "merge":
            rs.merge_analytic(op[1], op[2])
        else:
            rs.clear()
        if read_pct is None:
            continue
        summary = rs.summary()
        if not rs:
            assert summary.count == 0
            continue
        ordered = sorted(list(rs))
        assert (summary.p50, summary.p95, summary.p99, summary.p999) == tuple(
            percentile(ordered, pct) for pct in (50, 95, 99, 99.9)
        )
        assert (summary.count, summary.mean, summary.max) == (rs.count, rs.mean, rs.max)
        # The drawn rank, then the rank of every retained value.
        last = max(len(ordered) - 1, 1)
        for pct in (read_pct, *(100.0 * k / last for k in range(last + 1))):
            assert rs.percentile(pct) == percentile(ordered, pct)


# --- wire codec size selection ------------------------------------------------------


@settings(max_examples=200)
@given(
    delta=st.integers(0, (1 << 24) - 1),
    term=st.integers(0, 63),
    props=st.integers(0, (1 << 16) - 1),
)
def test_tuple_encoding_is_minimal(delta, term, props):
    """The encoder always picks the smallest format that fits (§4.1)."""
    hit = HitTuple(delta, term, props)
    size = hit.encoded_size
    fits_2 = delta < (1 << 10) and term < 16 and props == 0
    fits_4 = delta < (1 << 16) and props < (1 << 8)
    if fits_2:
        assert size == 2
    elif fits_4:
        assert size == 4
    else:
        assert size == 6


# --- scorer banks --------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    n_trees=st.integers(1, 40),
    values=st.lists(st.floats(-4, 4, allow_nan=False, width=16), min_size=3, max_size=3),
)
def test_tree_banks_partition_exactly(n_trees, values):
    def leaf(v):
        return TreeNode(value=v)

    trees = [
        DecisionTree(
            TreeNode(feature=0, threshold=0.5, left=leaf(v), right=leaf(-v))
        )
        for v in (values * ((n_trees // 3) + 1))[:n_trees]
    ]
    scorer = BoostedTreeScorer(trees)
    # Every tree is in exactly one bank.
    assert sum(len(scorer.bank(i)) for i in range(3)) == n_trees
    # simlint: allow-id-ordering -- identity used only to count distinct
    # objects; nothing orders or keys simulation state by it.
    seen = [id(t) for i in range(3) for t in scorer.bank(i)]
    assert len(set(seen)) == n_trees
    # Partials always reassemble the full score.
    packed = [0.25]
    assert sum(scorer.evaluate_bank(i, packed) for i in range(3)) == pytest.approx(
        scorer.evaluate(packed)
    )


def _same(score, reference):
    """Bit-for-bit equality, where a NaN equals only a NaN."""
    if math.isnan(reference):
        return math.isnan(score)
    return not math.isnan(score) and score == reference


def assert_scorer_is_exact(scorer, packed):
    """The scorer's banks and total equal the reference walk, bit for bit."""
    lr = scorer.learning_rate
    for i in range(3):
        reference = lr * sum(tree.evaluate(packed) for tree in scorer.bank(i))
        assert _same(scorer.evaluate_bank(i, packed), reference)
    assert _same(scorer.evaluate(packed), lr * sum(tree.evaluate(packed) for tree in scorer.trees))


# Thresholds and inputs share a grid half the time, so ``x == threshold``
# (which goes left) comes up often.
_GRID = (-1.0, 0.0, 0.5, 1.0)
# IEEE edge values: a signed zero, both infinities and NaN (every
# comparison with NaN is false, so a NaN input goes right).
_SPECIAL = (-0.0, 0.0, math.inf, -math.inf, math.nan)


def _chain(rng, depth, spine, pick):
    """A ``depth``-deep one-sided tree: every decision node has a leaf on
    one side and the rest of the chain on the ``spine`` side."""
    node = TreeNode(value=pick())
    for _ in range(depth):
        # Mostly a threshold that keeps to the spine, so walks go deep.
        if rng.random() < 0.9:
            threshold = math.inf if spine == "left" else -math.inf
        else:
            threshold = pick()
        leaf = TreeNode(value=pick())
        left, right = (node, leaf) if spine == "left" else (leaf, node)
        node = TreeNode(feature=rng.randrange(4), threshold=threshold, left=left, right=right)
    return DecisionTree(node)


_EXAMPLE = dict(
    seed=7,
    max_depth=6,
    length=12,
    nan_every=0,
    int_leaves=False,
    special_frac=0.1,
    chain=None,
    learning_rate=0.1,
)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_trees=st.integers(1, 40),
    max_depth=st.integers(0, 12),
    length=st.integers(0, 12),
    nan_every=st.integers(0, 4),
    int_leaves=st.booleans(),
    special_frac=st.sampled_from([0.0, 0.1, 0.5]),
    chain=st.sampled_from([None, "left", "right"]),
    learning_rate=st.sampled_from([0.1, 0.25, 1.0, 1 / 3]),
)
# One tree leaves two banks empty, two trees one; 3 * GROUP + 3 trees put
# one tree past a group boundary in every bank.
@example(**_EXAMPLE, n_trees=1)
@example(**_EXAMPLE, n_trees=2)
@example(**_EXAMPLE, n_trees=3 * scoring.GROUP + 3)
def test_compiled_scorer_matches_reference_exactly(
    seed, n_trees, max_depth, length, nan_every, int_leaves, special_frac, chain, learning_rate
):
    """Random trees up to depth 12 over features 0..15: vectors of length
    0..12 leave some features past the end, 1-2 trees leave banks empty,
    NaN inputs go right, a share ``special_frac`` of thresholds, leaves
    and inputs are IEEE edge values, and ``chain`` adds a 500-deep
    one-sided tree leaning that way."""
    rng = RngStreams(seed).stream("trees")

    def value(low, high):
        if special_frac and rng.random() < special_frac:
            return rng.choice(_SPECIAL)
        return rng.choice(_GRID) if rng.random() < 0.5 else rng.uniform(low, high)

    def node(depth):
        if depth == 0 or rng.random() < 0.25:
            if int_leaves and rng.random() < 0.5:
                return TreeNode(value=rng.randint(-3, 3))
            return TreeNode(value=value(-1.0, 1.0))
        return TreeNode(
            feature=rng.randrange(16),
            threshold=value(-2.0, 2.0),
            left=node(depth - 1),
            right=node(depth - 1),
        )

    trees = [DecisionTree(node(max_depth)) for _ in range(n_trees)]
    if chain is not None:
        trees.insert(
            rng.randrange(n_trees + 1), _chain(rng, 500, chain, lambda: value(-2.0, 2.0))
        )
    scorer = BoostedTreeScorer(trees, learning_rate)
    packed = [
        math.nan if nan_every and i % nan_every == 0 else value(-2.0, 2.0)
        for i in range(length)
    ]
    assert_scorer_is_exact(scorer, packed)


def test_each_bank_compiles_into_one_function_per_group(monkeypatch):
    compiled = []

    def counting_eval(source, *args):
        compiled.append(source)
        return eval(source, *args)

    # ``scoring`` looks ``eval`` up in its globals before the builtins.
    monkeypatch.setattr(scoring, "eval", counting_eval, raising=False)
    leaf = TreeNode(value=0.5)
    for n_trees in (1, 3 * scoring.GROUP + 4):
        compiled.clear()
        scorer = BoostedTreeScorer([DecisionTree(leaf)] * n_trees)
        scorer.evaluate_bank(2, [0.0])  # compiles every bank
        groups = sum(math.ceil(len(scorer.bank(i)) / scoring.GROUP) for i in range(3))
        assert len(compiled) == groups
        # The full score reuses the banks' functions.
        assert scorer.evaluate([0.0]) == 0.1 * sum([0.5] * n_trees)
        scorer.evaluate_bank(0, [0.0])
        assert len(compiled) == groups
    assert groups == 2 + 2 + 2  # banks of GROUP + 2, GROUP + 1 and GROUP + 1 trees


def test_compiled_scorer_matches_reference_on_default_models():
    library = ModelLibrary.default(scale=0.05)
    engine = ScoringEngine(library)
    generator = TraceGenerator(seed=12, model_mix={0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0})
    for request in generator.requests(20):
        model = engine.model_for(request.document)
        assert_scorer_is_exact(model.scorer, engine.packed(request.document, model))


# --- FFE assembler ---------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    n_exprs=st.integers(1, 120),
    cores=st.integers(1, 16),
    threads=st.integers(1, 4),
)
def test_assembler_assigns_every_expression_exactly_once(n_exprs, cores, threads):
    compiler = FfeCompiler()
    exprs = [
        compiler.compile(BinOp("add", Feature(0), Const(float(i))), slot)
        for i, slot in enumerate(range(n_exprs))
    ]
    program = assemble(exprs, core_count=cores, threads_per_core=threads)
    slots_out = [
        e.output_slot for thread in program.threads for e in thread.expressions
    ]
    assert sorted(slots_out) == list(range(n_exprs))
    # Static priority: thread heads are sorted by descending latency
    # across the slot-0 threads in core order.
    heads = [
        thread.expressions[0].expected_latency
        for thread in program.threads
        if thread.slot == 0 and thread.expressions
    ]
    assert heads == sorted(heads, reverse=True)


# --- compression map -----------------------------------------------------------------


@settings(max_examples=60)
@given(
    slots=st.sets(st.integers(0, 5_000), min_size=1, max_size=200),
    data=st.data(),
)
def test_compression_pack_preserves_values(slots, data):
    cmap = CompressionMap(slots)
    values = {
        slot: data.draw(st.floats(-100, 100, allow_nan=False, width=16))
        for slot in data.draw(st.sets(st.sampled_from(sorted(slots)), max_size=50))
    }
    packed = cmap.pack(values)
    assert len(packed) == len(cmap)
    for slot, value in values.items():
        assert packed[cmap.index_of[slot]] == value
    # Unreferenced slots read zero.
    for i, slot in enumerate(cmap.slots):
        if slot not in values:
            assert packed[i] == 0.0


# --- store under interleaved producers ----------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    batches=st.lists(
        st.lists(st.integers(), min_size=1, max_size=5), min_size=1, max_size=6
    )
)
def test_store_multi_producer_conservation(batches):
    """No loss, no duplication, per-producer FIFO order preserved, with
    producers blocked on a full FIFO."""
    eng = Engine()
    store = Fifo(eng, capacity=3)
    received = []
    total = sum(len(batch) for batch in batches)

    def producer(eng, store, tag, items):
        for item in items:
            yield store.put((tag, item))
            yield eng.timeout(1.0)

    def consumer(eng, store):
        while len(received) < total:
            yield eng.timeout(1.5)
            while store.items:
                received.append(store.try_get())

    for tag, batch in enumerate(batches):
        eng.process(producer(eng, store, tag, batch))
    eng.process(consumer(eng, store))
    eng.run()
    assert len(received) == total
    for tag, batch in enumerate(batches):
        mine = [item for t, item in received if t == tag]
        assert mine == batch  # per-producer order held


# --- deadline queue against one Timeout per deadline ---------------------------------

# Small whole delays make deadlines, steps and ticks share instants.
_delay = st.one_of(st.sampled_from((0.0, 1.0, 2.0, 5.0)), st.floats(0.0, 20.0))
_deadline_actions = st.lists(
    st.one_of(
        # Arm a deadline; when it expires, optionally arm another.
        st.tuples(st.just("arm"), _delay, st.one_of(st.none(), _delay)),
        # Disarm an earlier deadline now (drawn twice as often).
        st.tuples(st.just("disarm"), st.integers(0, 50)),
        st.tuples(st.just("disarm"), st.integers(0, 50)),
        # An ordinary timeout that disarms an earlier deadline just
        # before, at or just after its expiry instant.
        st.tuples(st.just("disarm_at"), st.integers(0, 50), st.sampled_from((-1.0, 0.0, 1.0))),
        # An ordinary timeout that only records itself.
        st.tuples(st.just("tick"), _delay),
    ),
    min_size=1,
    max_size=5,
)
_deadline_scripts = st.lists(st.tuples(_delay, _deadline_actions), min_size=1, max_size=8)
# Two deadlines due with a tick at one instant: the timer moves from the
# first to the second under the second's own key, ahead of the tick.
_equal_deadlines_and_a_tick = [(0.0, [("arm", 5.0, None), ("arm", 5.0, None), ("tick", 5.0)])]
# A deadline armed ahead of the head takes over the timer; the one it
# displaced is disarmed, and must not keep run() alive to its instant.
_displaced_and_disarmed = [(0.0, [("arm", 5.0, None), ("arm", 1.0, None), ("disarm", 0)])]


class _TimeoutDeadlines:
    """The reference: one ``Timeout`` per deadline.  Disarming marks it
    cancelled, so it is dropped at the head like a killed waiter's
    timeout, and demotes it to daemon work, so it keeps no bare
    ``run()`` alive."""

    def __init__(self, engine):
        self.engine = engine

    def arm(self, delay, expire, arg):
        timeout = self.engine.timeout(delay)
        timeout.add_callback(lambda _timeout: expire(arg))
        return timeout

    def disarm(self, timeout):
        if not timeout.triggered:
            timeout.cancelled = True
            self.engine.mark_daemon(timeout)


def _run_deadline_script(script, engine, deadlines):
    """The ``(time, label)`` trace of every callback, and the end of a
    bare ``run()``."""
    trace = []
    handles = []  # (handle, expiry instant) by arm order

    def arm(delay, chain):
        number = len(handles)

        def expire(_arg):
            trace.append((engine.now, f"expire {number}"))
            if chain is not None:
                arm(chain, None)

        handles.append((deadlines.arm(delay, expire, None), engine.now + delay))

    def disarm(index, label):
        trace.append((engine.now, label))
        if handles:
            deadlines.disarm(handles[index % len(handles)][0])

    def later(delay, label, action=None):
        def fire(_timeout):
            trace.append((engine.now, label))
            if action is not None:
                action()

        engine.timeout(delay).add_callback(fire)

    def step(number, actions):
        trace.append((engine.now, f"step {number}"))
        for position, action in enumerate(actions):
            label = f"{number}.{position}"
            if action[0] == "arm":
                arm(action[1], action[2])
            elif action[0] == "disarm":
                disarm(action[1], f"disarm {label}")
            elif action[0] == "disarm_at" and handles:
                index = action[1] % len(handles)
                delay = max(0.0, handles[index][1] - engine.now + action[2])
                later(delay, f"disarm_at {label}", lambda index=index: disarm(index, ""))
            elif action[0] == "tick":
                later(action[1], f"tick {label}")

    for number, (at, actions) in enumerate(script):
        later(at, f"at {number}", lambda number=number, actions=actions: step(number, actions))
    end = engine.run()
    return trace, end


@settings(max_examples=200, deadline=None)
@given(script=_deadline_scripts, salted=st.booleans())
@example(script=_equal_deadlines_and_a_tick, salted=False)
@example(script=_displaced_and_disarmed, salted=False)
@example(script=_displaced_and_disarmed, salted=True)
def test_deadline_queue_matches_one_timeout_per_deadline(script, salted):
    """Every expiry of a ``DeadlineQueue`` deadline, and every other
    callback, happens at the same instant and in the same same-instant
    order as with one ``Timeout`` per deadline; a bare ``run()`` ends at
    the same time.  On a plain engine and on a salted one."""

    def engine():
        return Engine(tie_break_salt=DEFAULT_TIE_SALT if salted else 0)

    reference = engine()
    expected = _run_deadline_script(script, reference, _TimeoutDeadlines(reference))
    queued = engine()
    assert _run_deadline_script(script, queued, queued.deadlines) == expected


# --- scheduler capacity accounting ---------------------------------------------------

_PLACEMENT_OPS = st.one_of(
    st.tuples(st.just("whole")),
    st.tuples(st.just("gang"), st.integers(2, 3)),
    st.tuples(
        st.just("region"),
        st.sampled_from((0.25, 0.5, 0.75)),
        st.sampled_from(("latency", "batch")),
    ),
    st.tuples(st.just("release"), st.integers(0, 50)),
    st.tuples(st.just("cordon"), st.integers(0, 50)),
    st.tuples(st.just("cordon_nodes"), st.integers(0, 50), st.integers(1, 2)),
    st.tuples(st.just("service"), st.integers(0, 50)),
)


def _assert_capacity_balances(scheduler, dc):
    report = scheduler.capacity_report()
    totals = dict.fromkeys(
        ("total", "free", "occupied", "cordoned", "regions", "region_cordons"), 0
    )
    for pod in report.per_pod.values():
        assert pod.free_rings + pod.occupied_rings + pod.cordoned_rings == pod.total_rings
        assert min(pod.free_rings, pod.occupied_rings, pod.cordoned_rings) >= 0
        totals["total"] += pod.total_rings
        totals["free"] += pod.free_rings
        totals["occupied"] += pod.occupied_rings
        totals["cordoned"] += pod.cordoned_rings
        totals["regions"] += pod.tenant_regions
        totals["region_cordons"] += pod.cordoned_regions
    assert totals == {
        "total": dc.total_rings,
        "free": report.free_rings,
        "occupied": report.occupied_rings,
        "cordoned": report.cordoned_rings,
        "regions": report.tenant_regions,
        "region_cordons": report.cordoned_regions,
    }
    assert report.free_rings == len(scheduler.free_slots())
    return report


def _free_nodes(scheduler, dc, slot):
    """The nodes of ``slot`` no claim or cordon holds."""
    tenancy = scheduler.tenancy_of(slot)
    if tenancy is not None:
        return tenancy.free_nodes()
    if slot in scheduler.free_slots():
        return [server.node_id for server in dc.ring_servers(slot)]
    return []


def _cordoned(scheduler, slot):
    """Whether any cordon holds nodes of ``slot``."""
    tenancy = scheduler.tenancy_of(slot)
    return tenancy is not None and bool(tenancy.cordoned)


@settings(max_examples=50, deadline=None)
@given(
    pods=st.integers(2, 3),
    width=st.integers(2, 3),
    ops=st.lists(_PLACEMENT_OPS, min_size=1, max_size=10),
)
def test_capacity_accounting_balances_under_placement_churn(pods, width, ops):
    """Whole rings, gangs and region tenants, placed, released, cordoned
    and serviced in any order: every pod's rings are free, occupied or
    cordoned exactly once, the per-pod figures sum to the datacenter's,
    and releasing and servicing everything frees every ring."""
    dc = Datacenter(
        Engine(seed=5), num_pods=pods, topology=TorusTopology(width=width, height=4)
    )
    scheduler = ClusterScheduler(dc)
    placed = []  # one list of member deployments per replica
    for number, op in enumerate(ops):
        service = echo_service(f"svc{number}")
        try:
            if op[0] == "whole":
                placed.append(scheduler.deploy(service, rings=1))
            elif op[0] == "gang":
                placed.append(scheduler.deploy(service, rings=op[1]))
            elif op[0] == "region":
                placed.append(scheduler.deploy(service, fraction=op[1], priority=op[2]))
        except InsufficientClusterCapacity:
            pass
        if op[0] == "release" and placed:
            for member in placed.pop(op[1] % len(placed)):
                scheduler.release(member)
        elif op[0] == "cordon" and scheduler.free_slots():
            free = scheduler.free_slots()
            scheduler.cordon(free[op[1] % len(free)], reason="bad card")
        elif op[0] == "cordon_nodes":
            runs = [
                (slot, nodes) for slot in dc.ring_slots()
                if (nodes := _free_nodes(scheduler, dc, slot))
            ]
            if runs:
                slot, nodes = runs[op[1] % len(runs)]
                scheduler.cordon(slot, nodes[: op[2]], reason="bad run")
        elif op[0] == "service":
            slot = dc.ring_slots()[op[1] % dc.total_rings]
            if _cordoned(scheduler, slot):
                scheduler.uncordon(slot)
        _assert_capacity_balances(scheduler, dc)
    for members in placed:
        for member in members:
            scheduler.release(member)
    for slot in dc.ring_slots():
        if _cordoned(scheduler, slot):
            scheduler.uncordon(slot)
    report = _assert_capacity_balances(scheduler, dc)
    assert report.free_rings == dc.total_rings
    assert report.occupied_rings == report.cordoned_rings == 0
    assert report.tenant_regions == report.cordoned_regions == 0
