"""Tests for the SimSanitizer runtime detectors and dual-run race check."""

import types

import pytest

from repro.cluster import ClusterScheduler
from repro.fabric import Datacenter, TorusTopology
from repro.host.slots import SlotAllocator
from repro.sim import AllOf, Engine, SanitizerError, dual_run, state_digest
from repro.sim.sanitizer import SimSanitizer
from tests.test_cluster import echo_service


# --- timeout-leak detector ----------------------------------------------------------


def _refused_racer(eng, guard):
    """Wait for a reply under ``guard``; a refusal fails the wait at
    t=10 and the racer moves on.  Returns the instants it moved on."""
    laps = []
    refusal = eng.event()

    def refuse():
        yield eng.timeout(10.0)
        refusal.fail(ValueError("refused"))

    def racer():
        try:
            yield from guard(refusal)
        except ValueError:
            laps.append(eng.now)

    eng.process(refuse())
    eng.process(racer())
    return laps


def _timeout_guard(eng):
    def guard(reply):
        slow = eng.timeout(1_000.0)
        # BUG (deliberate): the refusal fails the AllOf and the racer
        # moves on, but the timeout stays armed and keeps the bare
        # run() alive for the full 1000 ns.
        yield AllOf(eng, [reply, slow])

    return guard


def test_timeout_abandoned_by_a_failed_allof_is_detected():
    eng = Engine(sanitize=True)
    _refused_racer(eng, _timeout_guard(eng))
    with pytest.raises(SanitizerError, match="timeout-leak"):
        eng.run()


def test_leak_report_carries_the_creation_site():
    eng = Engine(sanitize=True)
    _refused_racer(eng, _timeout_guard(eng))
    with pytest.raises(SanitizerError, match="test_sanitizer.py"):
        eng.run()


def test_cancelled_loser_is_clean():
    """A guard that loses the race and is disarmed leaves no finding."""
    eng = Engine(sanitize=True)
    expired = []

    def guard(reply):
        # The recommended idiom: a deadline its waiter may abandon sits
        # in engine.deadlines and is disarmed when the wait resolves.
        deadline = eng.deadlines.arm(1_000.0, expired.append, "guard")
        try:
            yield reply
        finally:
            eng.deadlines.disarm(deadline)

    laps = _refused_racer(eng, guard)
    assert eng.run() == 10.0
    assert laps == [10.0]
    assert expired == []
    assert eng.sanitizer.findings == []


def test_awaited_timeout_is_not_a_leak():
    eng = Engine(sanitize=True)
    done = []

    def sleeper():
        yield eng.timeout(50.0)
        done.append(eng.now)

    eng.process(sleeper())
    eng.run()
    assert done == [50.0]
    assert eng.sanitizer.findings == []


# --- orphan-process detector --------------------------------------------------------


def test_process_stuck_on_untriggerable_event_is_an_orphan():
    eng = Engine(sanitize=True)

    def stuck():
        # simlint: allow-dead-yield -- the stranding is the test subject
        yield eng.event(name="never")

    eng.process(stuck(), name="stuck")
    with pytest.raises(SanitizerError, match="orphan-process"):
        eng.run()


def test_expendable_process_is_not_an_orphan():
    eng = Engine(sanitize=True)

    def forever():
        # simlint: allow-dead-yield -- models a perpetual service loop
        yield eng.event(name="mailbox")

    eng.process(forever(), name="service-loop", expendable=True)
    eng.run()
    assert eng.sanitizer.findings == []


def test_time_bounded_run_does_not_report_orphans():
    eng = Engine(sanitize=True)

    def later():
        yield eng.timeout(1_000.0)

    eng.process(later())
    eng.run(until=10.0)  # pending work is legitimate here
    assert eng.sanitizer.findings == []


# --- lease-leak detector ------------------------------------------------------------


def _fake_server(engine, slots=4):
    return types.SimpleNamespace(
        engine=engine,
        machine_id="m0",
        buffers=types.SimpleNamespace(slot_count=slots),
    )


def test_released_owner_with_open_lease_is_a_leak():
    eng = Engine(sanitize=True)
    allocator = SlotAllocator(_fake_server(eng))
    owner = types.SimpleNamespace(released=False)
    allocator.acquire(2, owner="tenant-a", owner_obj=owner)
    owner.released = True  # reclaimed without release_slots(): the bug
    with pytest.raises(SanitizerError, match="lease-leak"):
        eng.run()


def test_returned_lease_is_clean():
    eng = Engine(sanitize=True)
    allocator = SlotAllocator(_fake_server(eng))
    owner = types.SimpleNamespace(released=False)
    slots = allocator.acquire(2, owner="tenant-a", owner_obj=owner)
    allocator.release(slots)
    owner.released = True
    eng.run()
    assert eng.sanitizer.findings == []
    assert eng.sanitizer.open_leases() == []


def test_live_owner_with_open_lease_is_not_a_leak():
    eng = Engine(sanitize=True)
    allocator = SlotAllocator(_fake_server(eng))
    owner = types.SimpleNamespace(released=False)
    allocator.acquire(1, owner="tenant-a", owner_obj=owner)
    eng.run()  # still deployed: holding the lease is correct
    assert eng.sanitizer.findings == []


# --- clock monotonicity -------------------------------------------------------------


def test_clock_regression_is_reported():
    eng = Engine(sanitize=True)
    eng.now = 100.0
    eng.sanitizer.on_dispatch(5.0, eng.event(name="late"))
    assert [f.kind for f in eng.sanitizer.findings] == ["clock-regression"]


def test_normal_run_never_regresses():
    eng = Engine(sanitize=True)

    def body():
        for _ in range(50):
            yield eng.timeout(3.0)

    eng.process(body())
    eng.run()
    assert not any(
        f.kind == "clock-regression" for f in eng.sanitizer.findings
    )


# --- opt-in paths -------------------------------------------------------------------


def test_env_var_enables_the_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert Engine().sanitizer is not None
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert Engine().sanitizer is None


def test_explicit_flag_wins_over_env(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert Engine(sanitize=False).sanitizer is None
    monkeypatch.delenv("REPRO_SANITIZE")
    assert isinstance(Engine(sanitize=True).sanitizer, SimSanitizer)


# --- dual-run tie-break shuffling ---------------------------------------------------


def test_injected_same_timestamp_race_is_detected():
    """Eight workers wake at the same instant and their completion
    order is recorded as state: a textbook same-timestamp race the
    salted tie-break run must expose."""

    def scenario(eng):
        order = []

        def worker(tag):
            yield eng.timeout(10.0)
            order.append(tag)

        for tag in "abcdefgh":
            eng.process(worker(tag), name=f"w{tag}")
        eng.run()
        return {"order": tuple(order)}

    report = dual_run(scenario, seed=7)
    assert report.racy
    assert not report.state_match


def test_order_insensitive_scenario_is_not_racy():
    """Same workers, but the observable state is order-free — the two
    schedules must digest identically (state AND folded trace)."""

    def scenario(eng):
        done = []

        def worker(tag):
            yield eng.timeout(10.0)
            done.append(tag)

        for tag in "abcdefgh":
            eng.process(worker(tag), name=f"w{tag}")
        eng.run()
        return {"done": sorted(done), "now": eng.now}

    report = dual_run(scenario, seed=7)
    assert not report.racy
    assert report.state_match
    assert report.trace_match


def test_reference_cluster_scenario_is_tie_break_stable():
    """Seed-determinism regression (ISSUE 8 acceptance): the reference
    cluster scenario run under FIFO and shuffled same-timestamp
    tie-breaks must produce identical state and event-trace digests."""

    def scenario(eng):
        dc = Datacenter(
            eng, num_pods=2, topology=TorusTopology(width=2, height=3)
        )
        scheduler = ClusterScheduler(dc)
        (deployment,) = scheduler.deploy(echo_service(), rings=1)
        payloads = []

        def driver():
            for _ in range(4):
                response = yield from deployment.submit(object())
                payloads.append(response.payload)

        eng.process(driver())
        eng.run()
        return {
            "completed": deployment.completed,
            "timeouts": deployment.timeouts,
            "payloads": tuple(payloads),
            "final_ns": eng.now,
        }

    report = dual_run(scenario, seed=3)
    # State (the observable outcome) must match.  The folded trace is
    # not asserted here: it records each event's cancelled flag at
    # dispatch time, and whether a same-timestamp cancel lands before
    # or after the pop is legitimately tie-order dependent.
    assert report.state_match, (
        f"cluster scenario is tie-break sensitive: "
        f"{report.baseline_state} != {report.shuffled_state}"
    )
    assert not report.racy


# --- state digest -------------------------------------------------------------------


def test_state_digest_is_insensitive_to_dict_and_set_order():
    a = {"x": 1, "y": {2, 3}, "z": [1.5, "s"]}
    b = {"y": {3, 2}, "z": [1.5, "s"], "x": 1}
    assert state_digest(a) == state_digest(b)


def test_state_digest_distinguishes_values():
    assert state_digest({"x": 1}) != state_digest({"x": 2})
