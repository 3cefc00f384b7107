"""Unit tests for the simulation engine, events and processes."""

import pytest

from repro.sim import (
    AllOf,
    Engine,
    Fifo,
    PriorityStore,
    ProcessKilled,
    Resource,
    SimulationError,
    Store,
    Timeout,
    dual_run,
)


def test_time_starts_at_zero():
    eng = Engine()
    assert eng.now == 0.0


def test_timeout_advances_clock():
    eng = Engine()
    times = []

    def body(eng):
        yield eng.timeout(10.0)
        times.append(eng.now)
        yield eng.timeout(5.0)
        times.append(eng.now)

    eng.process(body(eng))
    eng.run()
    assert times == [10.0, 15.0]


def test_timeout_delivers_value():
    eng = Engine()

    def body(eng):
        got = yield eng.timeout(1.0, value="payload")
        return got

    proc = eng.process(body(eng))
    eng.run()
    assert proc.value == "payload"


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(-1.0)


def test_process_return_value():
    eng = Engine()

    def body(eng):
        yield eng.timeout(1.0)
        return 42

    proc = eng.process(body(eng))
    eng.run()
    assert proc.value == 42
    assert not proc.is_alive


def test_process_join():
    eng = Engine()

    def child(eng):
        yield eng.timeout(7.0)
        return "done"

    def parent(eng):
        result = yield eng.process(child(eng))
        return (eng.now, result)

    proc = eng.process(parent(eng))
    eng.run()
    assert proc.value == (7.0, "done")


def test_two_processes_interleave_deterministically():
    eng = Engine()
    order = []

    def worker(eng, name, delay):
        yield eng.timeout(delay)
        order.append((eng.now, name))
        yield eng.timeout(delay)
        order.append((eng.now, name))

    eng.process(worker(eng, "a", 3.0))
    eng.process(worker(eng, "b", 2.0))
    eng.run()
    assert order == [(2.0, "b"), (3.0, "a"), (4.0, "b"), (6.0, "a")]


def test_same_time_events_fifo_order():
    eng = Engine()
    order = []

    def worker(eng, name):
        yield eng.timeout(5.0)
        order.append(name)

    for name in ["first", "second", "third"]:
        eng.process(worker(eng, name))
    eng.run()
    assert order == ["first", "second", "third"]


def test_run_until_time_bound():
    eng = Engine()

    def body(eng):
        while True:
            yield eng.timeout(10.0)

    eng.process(body(eng))
    stopped = eng.run(until=35.0)
    assert stopped == 35.0
    assert eng.now == 35.0


def test_run_until_event():
    eng = Engine()

    def body(eng):
        yield eng.timeout(9.0)
        return "x"

    proc = eng.process(body(eng))
    assert eng.run_until(proc) == "x"
    assert eng.now == 9.0


def test_run_until_event_queue_drained_raises():
    eng = Engine()
    never = eng.event("never")

    def body(eng):
        yield eng.timeout(1.0)

    eng.process(body(eng))
    with pytest.raises(SimulationError):
        eng.run_until(never)


def test_event_succeed_once_only():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_event_fail_propagates_into_process():
    eng = Engine()
    ev = eng.event()

    def body(eng, ev):
        try:
            yield ev
        except ValueError as exc:
            return f"caught {exc}"

    proc = eng.process(body(eng, ev))

    def failer(eng, ev):
        yield eng.timeout(1.0)
        ev.fail(ValueError("boom"))

    eng.process(failer(eng, ev))
    eng.run()
    assert proc.value == "caught boom"


def test_fail_requires_exception():
    eng = Engine()
    with pytest.raises(TypeError):
        eng.event().fail("not an exception")


def test_uncaught_process_exception_surfaces():
    eng = Engine()

    def body(eng):
        yield eng.timeout(1.0)
        raise RuntimeError("crash")

    eng.process(body(eng))
    with pytest.raises(RuntimeError, match="crash"):
        eng.run()


def test_joined_process_exception_delivered_to_joiner():
    eng = Engine()

    def child(eng):
        yield eng.timeout(1.0)
        raise RuntimeError("child crash")

    def parent(eng):
        try:
            yield eng.process(child(eng))
        except RuntimeError as exc:
            return str(exc)

    proc = eng.process(parent(eng))
    eng.run()
    assert proc.value == "child crash"


def test_kill_terminates_process():
    eng = Engine()
    progressed = []

    def body(eng):
        yield eng.timeout(10.0)
        progressed.append(True)

    proc = eng.process(body(eng))

    def killer(eng, victim):
        yield eng.timeout(1.0)
        victim.kill()

    eng.process(killer(eng, proc))
    eng.run()
    assert progressed == []
    assert isinstance(proc.exception, ProcessKilled)


def test_allof_waits_for_all():
    eng = Engine()

    def body(eng):
        t1 = eng.timeout(3.0, value="a")
        t2 = eng.timeout(7.0, value="b")
        got = yield AllOf(eng, [t1, t2])
        return (eng.now, got, t1.value, t2.value)

    proc = eng.process(body(eng))
    eng.run()
    assert proc.value == (7.0, None, "a", "b")


def test_allof_empty_succeeds_immediately():
    eng = Engine()

    def body(eng):
        got = yield AllOf(eng, [])
        return (eng.now, got)

    proc = eng.process(body(eng))
    eng.run()
    assert proc.value == (0.0, None)


def test_yield_non_event_is_error():
    eng = Engine()

    def body(eng):
        yield 42

    eng.process(body(eng))
    with pytest.raises(TypeError):
        eng.run()


def test_cannot_schedule_in_past():
    eng = Engine()

    def body(eng):
        yield eng.timeout(5.0)

    eng.process(body(eng))
    eng.run()
    with pytest.raises(SimulationError):
        eng._schedule_at(1.0, eng.event())


def test_timeout_isinstance_event():
    eng = Engine()
    assert isinstance(eng.timeout(1.0), Timeout)

# --- the L0 kernel, pinned -------------------------------------------------------


def _sleep(eng, delay):
    yield eng.timeout(delay)


def test_kernel_counters_are_pinned():
    """Timeouts, two kills, a daemon ticker and deadlines that are armed,
    disarmed and expired, with the exact counters they leave.

    A killed waiter's timeout is cancelled and demoted to daemon work: it
    is dropped when the engine reaches it, its callbacks never run, it is
    not counted as dispatched, and it does not hold a bare ``run()``
    open, so the daemon ticker stops with the last live work at 10.0
    instead of ticking on to the napper's abandoned instant, 60.0."""
    eng = Engine()
    log = []
    abandoned = []

    def victim():
        timeout = eng.timeout(50.0)
        timeout.add_callback(lambda _event: log.append("victim timeout dispatched"))
        abandoned.append(timeout)
        yield timeout
        log.append("victim woke")

    def napper():
        yield eng.timeout(60.0)
        log.append("napper woke")

    def ticker():
        yield eng.timeout(1.0)
        for _ in range(2):
            log.append(("tick", eng.now))
            yield eng.timeout(2.0)
        log.append(("tick", eng.now))

    def daemon_ticker():
        while True:
            yield eng.timeout(3.0)
            log.append(("daemon", eng.now))

    def controller(victim, napper):
        deadlines = eng.deadlines
        deadlines.arm(8.0, log.append, "expired")
        disarmed = deadlines.arm(3.0, log.append, "disarmed")
        far = deadlines.arm(100.0, log.append, "far")
        yield eng.timeout(2.0)
        deadlines.disarm(disarmed)  # its timer, the head's, fires for nothing
        deadlines.disarm(far)  # never the head: it leaves no timer
        napper.kill()
        victim.kill()
        yield eng.timeout(8.0)

    eng.process(controller(eng.process(victim()), eng.process(napper())))
    eng.process(ticker())
    eng.process(_sleep(eng, 4.0))
    eng.process(daemon_ticker(), daemon=True)
    assert eng.run() == 10.0
    assert log == [
        ("tick", 1.0),
        ("daemon", 3.0),  # armed at 0.0, before the tick's at 1.0
        ("tick", 3.0),
        ("tick", 5.0),
        ("daemon", 6.0),
        "expired",
        ("daemon", 9.0),
    ]
    assert not abandoned[0].triggered
    # Dispatched: 6 process starts; the controller's 2 timeouts, the
    # ticker's 3 and the sleeper's 1; 3 daemon ticks; the 2 kills; the
    # deadline timer at 3.0 (for the disarmed head) and at 8.0 (expiry).
    # Dropped: none; the two abandoned timeouts (50.0, 60.0) and the
    # daemon's tick at 12.0 are still queued when run() returns.
    assert (eng.events_dispatched, eng.events_dropped, eng.peak_queue_length) == (19, 0, 10)
    assert eng.queue_length == 3


def _kill_at(eng, delay, victim):
    yield eng.timeout(delay)
    victim.kill()


def test_cancelled_timeout_never_dispatches_callbacks():
    """A timeout whose waiter was killed is dropped at the head: no
    callback of it runs, not even one another party added."""
    eng = Engine()
    fired = []
    timeout = eng.timeout(10.0)
    timeout.add_callback(fired.append)

    def waiter():
        yield timeout

    eng.process(_kill_at(eng, 1.0, eng.process(waiter())))
    eng.process(_sleep(eng, 50.0))
    eng.run()
    assert eng.now == 50.0  # ran past the stale deadline
    assert fired == []
    assert eng.events_dropped == 1
    assert not timeout.triggered


def test_cancelled_timeout_does_not_hold_run_open():
    eng = Engine()
    eng.process(_kill_at(eng, 1.0, eng.process(_sleep(eng, 1_000_000.0))))
    eng.run()  # must end at the kill, not at t=1e6
    assert eng.now == 1.0


def test_cancel_after_trigger_is_noop():
    """Disarming a deadline after it fired changes nothing."""
    eng = Engine()
    fired = []
    deadline = eng.deadlines.arm(5.0, fired.append, "fired")
    eng.run()
    assert fired == ["fired"]
    eng.deadlines.disarm(deadline)
    eng.deadlines.arm(1.0, fired.append, "again")
    eng.run()
    assert fired == ["fired", "again"]
    assert eng.now == 6.0


# --- dispatched-flag bookkeeping (slots refactor) -------------------------------


def test_add_callback_after_dispatch_fires_immediately():
    """Regression: the dispatched flag used to live only as a class-level
    fallback; it is now real per-instance state set before callbacks run."""
    eng = Engine()
    event = eng.event()
    event.succeed("v")
    eng.run()
    late = []
    event.add_callback(lambda e: late.append(e.value))
    assert late == ["v"]


def test_callback_registered_during_dispatch_is_not_lost():
    eng = Engine()
    event = eng.event()
    order = []

    def first(e):
        order.append("first")
        e.add_callback(lambda e2: order.append("second"))

    event.add_callback(first)
    event.succeed()
    eng.run()
    assert order == ["first", "second"]


def test_kernel_classes_have_no_instance_dict():
    from repro.sim import Event

    eng = Engine()
    for obj in (
        Event(eng),
        eng.timeout(1.0),
        AllOf(eng, [eng.event()]),
        eng.process(_sleep(eng, 1.0)),
    ):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    assert AllOf.__slots__  # guards against accidental slot removal


def test_engine_diagnostics_counters():
    # sanitize=False: bare timeouts are armed on purpose to count them.
    eng = Engine(sanitize=False)
    eng.timeout(1.0)
    eng.timeout(2.0)
    parked = eng.timeout(3.0)
    # Its waiter departed and it is daemon work: a killed daemon process
    # leaves the timeout it waited on so.
    parked.cancelled = True
    eng.mark_daemon(parked)
    assert eng.queue_length == 3
    assert eng.peak_queue_length >= 3
    eng.run()
    # A bare run() stops once non-daemon work drains; the cancelled
    # (daemon) entry is still parked, undropped, at its deadline.
    assert eng.events_dispatched == 2
    assert eng.events_dropped == 0
    assert eng.queue_length == 1
    eng.run(until=5.0)  # sail past the stale deadline: entry dropped
    assert eng.queue_length == 0
    assert eng.events_dropped == 1


def test_deadline_churn_keeps_the_queue_flat():
    """Arming a guard deadline per step and disarming it a step later
    leaves no dead entries in the event queue: the deadline queue keeps
    one timer there, demoted while nothing is armed."""
    eng = Engine(seed=1)
    fired = []

    heap_sizes = []

    def churn(eng, steps):
        for _ in range(steps):
            deadline = eng.deadlines.arm(5_000_000.0, fired.append, "fired")
            yield eng.timeout(10.0)
            eng.deadlines.disarm(deadline)
            heap_sizes.append(len(eng.deadlines._heap))

    eng.process(churn(eng, 6_000))
    eng.run()
    assert eng.now == 60_000.0
    assert eng.peak_queue_length == 2  # the step's timeout and the timer
    assert eng.queue_length == 1  # the demoted timer
    # The disarmed deadlines are compacted away, not kept until their
    # instant: the deadline heap stays within its slack, not 6,000 long.
    assert max(heap_sizes) <= 65
    eng.run(until=10_000_000.0)
    assert fired == []
    assert eng.queue_length == 0
    assert eng.events_dropped == 0


def test_compaction_keeps_the_expiry_order():
    """Disarming two thirds of 300 deadlines compacts the heap, the
    disarmed head with its scheduled timer kept; the live third fires
    in (instant, arm order), as without compaction."""
    eng = Engine(seed=1)
    fired = []
    handles = [eng.deadlines.arm(float(i % 7), fired.append, i) for i in range(300)]
    for i, handle in enumerate(handles):
        if i % 3 != 1:
            eng.deadlines.disarm(handle)
    assert len(eng.deadlines._heap) < 2 * 100 + 64
    eng.run()
    assert fired == sorted(range(1, 300, 3), key=lambda i: i % 7)
    assert eng.now == 6.0
    assert eng.deadlines._heap == []


# --- top-level only: no nested engine runs --------------------------------------


def test_run_until_inside_a_dispatching_engine_raises():
    eng = Engine()

    def nested(eng):
        yield eng.timeout(1.0)
        eng.run_until(eng.timeout(1.0))

    eng.process(nested(eng))
    with pytest.raises(SimulationError, match="top-level only"):
        eng.run()
    # The same misuse under a top-level run_until.
    eng = Engine()
    with pytest.raises(SimulationError, match="top-level only"):
        eng.run_until(eng.process(nested(eng)))


def test_drive_feeds_yielded_events_and_failures_back():
    eng = Engine()

    def body(eng):
        got = yield eng.timeout(5.0, value="tick")
        failing = eng.event()
        failing.fail(ValueError("boom"))
        try:
            yield failing
        except ValueError as exc:
            return got, str(exc), eng.now

    assert eng.drive(body(eng)) == ("tick", "boom", 5.0)


def test_control_plane_calls_inside_a_running_engine_raise():
    from repro.cluster import ClusterManager, ServiceSpec, echo_service
    from repro.fabric import Datacenter, TorusTopology

    eng = Engine(seed=1)
    dc = Datacenter(eng, num_pods=1, topology=TorusTopology(width=2, height=3))
    manager = ClusterManager(dc)
    spec = ServiceSpec(service=echo_service(), replicas=1)
    handle = manager.apply(spec)
    calls = {
        "apply": lambda: manager.apply(spec),
        "reconcile": lambda: manager.reconcile(handle),
        "upgrade": lambda: manager.upgrade(handle, spec),
    }
    for name, call in calls.items():
        errors = []

        def body(call=call, errors=errors):
            yield eng.timeout(1.0)
            try:
                call()
            except SimulationError as exc:
                errors.append(str(exc))

        eng.run_until(eng.process(body()))
        assert len(errors) == 1, name
        assert "top-level only" in errors[0], name
    assert len(handle.deployments) == 1  # nothing ran


# --- operations that finish when they are called skip the queue --------------------


def test_immediate_put_get_and_request_continue_in_the_same_resume():
    eng = Engine()
    fifo = Fifo(eng, capacity=1)
    store = Store(eng)
    store.try_put("a")
    heap = PriorityStore(eng)
    heap.try_put((2, "late"))
    heap.try_put((1, "early"))
    cpu = Resource(eng, capacity=1)
    order = []
    dispatched = []

    def body():
        yield eng.timeout(1.0)
        before = eng.events_dispatched
        yield fifo.put("a")
        order.append(("put", fifo.try_get()))
        order.append(("get", (yield store.get())))
        order.append(("heap", (yield heap.get())))
        yield cpu.request()
        order.append(("request", cpu.in_use))
        dispatched.append(eng.events_dispatched - before)

    def other():
        yield eng.timeout(1.0)  # due at the same instant, queued after body's
        order.append(("other", None))

    eng.process(body())
    eng.process(other())
    eng.run()
    # No queued wakeup between the steps: `other` could not cut in.
    assert order == [
        ("put", "a"),
        ("get", "a"),
        ("heap", (1, "early")),
        ("request", 1),
        ("other", None),
    ]
    assert dispatched == [0]


def test_blocked_get_is_woken_by_exactly_one_dispatched_event():
    eng = Engine()
    store = Store(eng)
    marks = {}

    def getter():
        item = yield store.get()  # empty: waits
        marks["woken"] = (eng.now, item, eng.events_dispatched)

    def producer():
        yield eng.timeout(5.0)
        store.try_put("x")
        marks["put"] = eng.events_dispatched

    eng.process(getter())
    eng.process(producer())
    eng.run()
    now, item, dispatched = marks["woken"]
    assert (now, item) == (5.0, "x")
    assert dispatched - marks["put"] == 1


def test_blocked_put_is_woken_by_exactly_one_dispatched_event():
    eng = Engine()
    fifo = Fifo(eng, capacity=1)
    fifo.try_put("full")
    marks = {}

    def putter():
        yield fifo.put("y")  # full: waits for room
        marks["woken"] = (eng.now, eng.events_dispatched)

    def consumer():
        yield eng.timeout(5.0)
        assert fifo.try_get() == "full"  # makes room: succeeds the putter
        marks["got"] = eng.events_dispatched

    eng.process(putter())
    eng.process(consumer())
    eng.run()
    now, dispatched = marks["woken"]
    assert now == 5.0
    assert dispatched - marks["got"] == 1
    assert list(fifo.items) == ["y"]


def test_long_run_of_immediate_gets_does_not_recurse():
    eng = Engine()
    store = Store(eng)
    count = 100_000
    for item in range(count):
        store.try_put(item)

    def drain():
        total = 0
        for _ in range(count):
            total += yield store.get()
        return total

    assert eng.run_until(eng.process(drain())) == sum(range(count))
    assert eng.events_dispatched == 1  # only the process start


def test_finished_process_without_joiner_leaves_no_queue_entry():
    eng = Engine()

    def quick():
        yield eng.timeout(1.0)
        return 42

    proc = eng.process(quick())
    eng.run()
    assert not proc.is_alive
    assert eng.events_dispatched == 2  # start + timeout; the end is not queued
    assert eng.queue_length == 0
    assert eng.run_until(proc) == 42

    def joiner():
        value = yield proc
        return value + 1

    assert eng.run_until(eng.process(joiner())) == 43


def test_conditions_over_completed_children():
    eng = Engine()
    store = Store(eng)
    store.try_put("a")
    store.try_put("b")
    fifo = Fifo(eng, capacity=1)
    results = []

    def quick():
        return "done"
        yield  # pragma: no cover - makes this a generator

    finished = eng.process(quick())

    def body():
        yield eng.timeout(1.0)
        first, second = store.get(), store.get()
        children = [first, second, finished]
        both = yield AllOf(eng, children)
        results.append((both, [child.value for child in children]))
        put = yield AllOf(eng, [fifo.put("c")])
        results.append((eng.now, put, list(fifo.items)))

    eng.run_until(eng.process(body()))
    assert results == [(None, ["a", "b", "done"]), (1.0, None, ["c"])]


def test_immediate_handoffs_are_tie_break_stable():
    def scenario(eng):
        store = Store(eng)
        cpu = Resource(eng, capacity=2)
        items = []

        def worker(tag):
            for index in range(5):
                yield cpu.request()
                yield eng.timeout(10.0)
                cpu.release()
                store.try_put((tag, index))

        def sink():
            for _ in range(10):
                items.append((yield store.get()))

        for tag in "ab":
            eng.process(worker(tag), name=f"worker-{tag}")
        eng.process(sink(), name="sink")
        eng.run()
        return {"items": sorted(items), "now": eng.now}

    report = dual_run(scenario, seed=3)
    assert not report.racy
