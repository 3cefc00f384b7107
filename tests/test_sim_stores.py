"""Unit and property tests for stores and resources."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine, Fifo, PriorityStore, Resource, Store, StoreFull


def run_to_completion(eng):
    eng.run()


def test_store_fifo_order():
    eng = Engine()
    store = Store(eng)
    got = []

    def producer(eng, store):
        for i in range(5):
            store.try_put(i)
            yield eng.timeout(1.0)

    def consumer(eng, store):
        for _ in range(5):
            item = yield store.get()
            got.append(item)

    eng.process(producer(eng, store))
    eng.process(consumer(eng, store))
    eng.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_get_blocks_until_put():
    eng = Engine()
    store = Store(eng)
    times = []

    def consumer(eng, store):
        item = yield store.get()
        times.append((eng.now, item))

    def producer(eng, store):
        yield eng.timeout(42.0)
        store.try_put("late")

    eng.process(consumer(eng, store))
    eng.process(producer(eng, store))
    eng.run()
    assert times == [(42.0, "late")]


def test_bounded_store_applies_backpressure():
    eng = Engine()
    store = Fifo(eng, capacity=2)
    put_times = []

    def producer(eng, store):
        for i in range(4):
            yield store.put(i)
            put_times.append(eng.now)

    def consumer(eng, store):
        yield eng.timeout(10.0)
        for _ in range(4):
            store.try_get()
            yield eng.timeout(10.0)

    eng.process(producer(eng, store))
    eng.process(consumer(eng, store))
    eng.run()
    # First two puts are immediate; the rest wait for consumer drains.
    assert put_times[0] == 0.0
    assert put_times[1] == 0.0
    assert put_times[2] == 10.0
    assert put_times[3] == 20.0


def test_store_capacity_validation():
    eng = Engine()
    with pytest.raises(ValueError):
        Fifo(eng, capacity=0)


def test_try_put_full_raises():
    eng = Engine()
    store = Fifo(eng, capacity=1)
    store.try_put("a")
    with pytest.raises(StoreFull):
        store.try_put("b")


def test_multiple_getters_served_in_order():
    eng = Engine()
    store = Store(eng)
    got = []

    def consumer(eng, store, name):
        item = yield store.get()
        got.append((name, item))

    eng.process(consumer(eng, store, "first"))
    eng.process(consumer(eng, store, "second"))

    def producer(eng, store):
        yield eng.timeout(1.0)
        store.try_put("a")
        store.try_put("b")

    eng.process(producer(eng, store))
    eng.run()
    assert got == [("first", "a"), ("second", "b")]


def test_priority_store_orders_items():
    eng = Engine()
    store = PriorityStore(eng)
    got = []
    for priority in [5, 1, 3]:
        store.try_put((priority, f"p{priority}"))

    def consumer(eng, store):
        yield eng.timeout(1.0)
        for _ in range(3):
            item = yield store.get()
            got.append(item[1])

    eng.process(consumer(eng, store))
    eng.run()
    assert got == ["p1", "p3", "p5"]


@settings(max_examples=50, deadline=None)
@given(items=st.lists(st.integers(), min_size=1, max_size=40))
def test_store_preserves_all_items_any_capacity(items):
    """Property: everything put is got, in FIFO order, for capacity 1."""
    eng = Engine()
    store = Fifo(eng, capacity=1)
    got = []

    def producer(eng, store):
        for item in items:
            yield store.put(item)

    def consumer(eng, store):
        for _ in items:
            yield eng.timeout(1.0)
            got.append(store.try_get())

    eng.process(producer(eng, store))
    eng.process(consumer(eng, store))
    eng.run()
    assert got == items


@settings(max_examples=50, deadline=None)
@given(
    priorities=st.lists(
        st.tuples(st.integers(0, 100), st.integers()), min_size=1, max_size=40
    )
)
def test_priority_store_delivers_sorted(priorities):
    eng = Engine()
    store = PriorityStore(eng)
    got = []
    for i, (prio, payload) in enumerate(priorities):
        store.try_put((prio, i, payload))

    def consumer(eng, store):
        for _ in priorities:
            item = yield store.get()
            got.append(item)

    eng.process(consumer(eng, store))
    eng.run()
    assert got == sorted(got)


def test_resource_grants_up_to_capacity():
    eng = Engine()
    core = Resource(eng, capacity=2, name="core")
    timeline = []

    def job(eng, core, name, hold):
        grant = core.request()
        yield grant
        timeline.append(("start", name, eng.now))
        yield eng.timeout(hold)
        core.release()
        timeline.append(("end", name, eng.now))

    for name in ["a", "b", "c"]:
        eng.process(job(eng, core, name, 10.0))
    eng.run()
    starts = {name: t for kind, name, t in timeline if kind == "start"}
    assert starts["a"] == 0.0
    assert starts["b"] == 0.0
    assert starts["c"] == 10.0  # waits for a unit


def test_resource_release_without_grant_raises():
    eng = Engine()
    core = Resource(eng, capacity=1)
    with pytest.raises(RuntimeError):
        core.release()


def test_resource_capacity_validation():
    eng = Engine()
    with pytest.raises(ValueError):
        Resource(eng, capacity=0)


def test_resource_queue_length():
    eng = Engine()
    core = Resource(eng, capacity=1)
    core.request()
    core.request()
    core.request()
    assert core.queue_length == 2
    assert core.available == 0
