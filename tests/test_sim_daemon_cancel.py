"""Tests for daemon processes and waiter cancellation in the kernel.

These semantics exist for the Catapult models: periodic background
services (SEU scrubber) must not keep ``run()`` alive, and killing a
process must not let its pending ``get()`` swallow the next item (a
replaced role's receive process once lost packets this way in ring
rotation; the slot-lease pool is a ``Store`` with getters today).
"""

from repro.sim import Engine, Interrupt, Resource, Store


def test_daemon_timeout_does_not_keep_run_alive():
    eng = Engine()
    ticks = []

    def scrubber(eng):
        while True:
            yield eng.timeout(100.0)
            ticks.append(eng.now)

    eng.process(scrubber(eng), daemon=True)

    def worker(eng):
        yield eng.timeout(250.0)

    eng.process(worker(eng))
    eng.run()
    # run() stops when only the daemon remains; time is at the worker's
    # completion (the daemon got to tick meanwhile).
    assert eng.now == 250.0
    assert ticks == [100.0, 200.0]


def test_daemon_executes_under_run_until_deadline():
    eng = Engine()
    ticks = []

    def scrubber(eng):
        while True:
            yield eng.timeout(100.0)
            ticks.append(eng.now)

    eng.process(scrubber(eng), daemon=True)
    eng.run(until=550.0)
    assert len(ticks) == 5


def test_pure_daemon_engine_run_returns_immediately():
    eng = Engine()

    def scrubber(eng):
        while True:
            yield eng.timeout(10.0)

    eng.process(scrubber(eng), daemon=True)
    eng.run()
    assert eng.now == 0.0


def test_killed_getter_does_not_swallow_item():
    eng = Engine()
    store = Store(eng)
    received = []

    def consumer(eng, store, name):
        item = yield store.get()
        received.append((name, item))

    victim = eng.process(consumer(eng, store, "victim"))

    def scenario(eng):
        yield eng.timeout(1.0)
        victim.kill()
        yield eng.timeout(1.0)
        survivor = eng.process(consumer(eng, store, "survivor"))
        yield eng.timeout(1.0)
        yield store.put("payload")
        yield survivor

    eng.process(scenario(eng))
    eng.run()
    assert received == [("survivor", "payload")]


def test_interrupted_getter_does_not_swallow_item():
    eng = Engine()
    store = Store(eng)
    outcome = []

    def consumer(eng, store):
        try:
            item = yield store.get()
            outcome.append(("got", item))
        except Interrupt:
            outcome.append(("interrupted", eng.now))

    victim = eng.process(consumer(eng, store))

    def scenario(eng):
        yield eng.timeout(5.0)
        victim.interrupt()
        yield eng.timeout(1.0)
        yield store.put("x")  # must stay in the store
        yield eng.timeout(1.0)

    eng.process(scenario(eng))
    eng.run()
    assert outcome == [("interrupted", 5.0)]
    assert list(store.items) == ["x"]


def test_killed_resource_waiter_releases_cleanly():
    eng = Engine()
    resource = Resource(eng, capacity=1)
    holder_done = []

    def holder(eng, resource):
        yield resource.request()
        yield eng.timeout(10.0)
        resource.release()
        holder_done.append(eng.now)

    def waiter(eng, resource):
        yield resource.request()
        raise AssertionError("must never be granted")  # pragma: no cover

    eng.process(holder(eng, resource))
    doomed = eng.process(waiter(eng, resource))

    def killer(eng):
        yield eng.timeout(1.0)
        doomed.kill()

    eng.process(killer(eng))
    eng.run()
    assert holder_done == [10.0]
    assert resource.available == 1  # unit returned despite dead waiter


def test_interrupt_lost_when_wakeup_already_in_flight():
    eng = Engine()
    store = Store(eng)
    outcome = []

    def consumer(eng, store):
        try:
            item = yield store.get()
            outcome.append(("got", item))
        except Interrupt:  # pragma: no cover - should not happen
            outcome.append(("interrupted", eng.now))

    victim = eng.process(consumer(eng, store))

    def scenario(eng):
        yield eng.timeout(1.0)
        store.try_put("x")  # triggers the get at t=1
        victim.interrupt()  # same instant: wakeup already in flight
        yield eng.timeout(1.0)

    eng.process(scenario(eng))
    eng.run()
    assert outcome == [("got", "x")]
