"""Tests for daemon processes and waiter cancellation in the kernel.

These semantics exist for the Catapult models: periodic background
services (SEU scrubber) must not keep ``run()`` alive, and killing a
process must not let its pending ``get()`` swallow the next item (a
replaced role's receive process once lost packets this way in ring
rotation; the slot-lease pool is a ``Store`` with getters today).
"""

from repro.sim import Engine, Resource, Store


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
        store.try_put("payload")
        yield survivor

    eng.process(scenario(eng))
    eng.run()
    assert received == [("survivor", "payload")]


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


def _sleep(eng, delay):
    yield eng.timeout(delay)


def _kill_at(eng, delay, victim):
    yield eng.timeout(delay)
    victim.kill()


def test_a_killed_waiter_s_timeout_lets_run_end_amid_daemon_work():
    """The abandoned timeout is demoted to daemon work when its waiter is
    killed, so a bare run() ends at the kill, not at the timeout's
    instant with the daemon ticking all the way there."""
    eng = Engine()

    def ticker():
        while True:
            yield eng.timeout(1.0)

    eng.process(ticker(), daemon=True)
    eng.process(_kill_at(eng, 2.5, eng.process(_sleep(eng, 50.0))))
    assert eng.run() == 2.5
    # 3 starts, the ticks at 1.0 and 2.0, the killer's timeout, the kill.
    assert eng.events_dispatched == 7


def test_a_killed_waiter_s_timeout_does_not_run_a_disarmed_deadline():
    """A disarmed deadline's timer is daemon work; a killed waiter's
    timeout must not keep the run going until that timer's instant."""
    eng = Engine()
    victim = eng.process(_sleep(eng, 1000.0))
    deadline = eng.deadlines.arm(100.0, lambda _arg: None, None)

    def controller():
        yield eng.timeout(10.0)
        eng.deadlines.disarm(deadline)
        victim.kill()

    eng.process(controller())
    assert eng.run() == 10.0
    # 2 starts, the controller's timeout, the kill.
    assert eng.events_dispatched == 4


def test_killing_one_of_two_waiters_keeps_a_shared_timeout_live():
    """Two processes wait on one timeout and one is killed: the timeout
    still has a waiter, so it is neither cancelled nor demoted, and the
    survivor wakes at its instant."""
    eng = Engine()
    shared = eng.timeout(10.0)
    woke = []

    def sleeper():
        yield shared
        woke.append(eng.now)

    survivor = eng.process(sleeper())
    eng.process(_kill_at(eng, 1.0, eng.process(sleeper())))
    assert eng.run() == 10.0
    assert woke == [10.0]
    assert not survivor.is_alive
