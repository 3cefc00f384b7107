"""Tests for deterministic named RNG streams."""

from repro.sim import RngStreams
from repro.sim.units import cycles_to_ns, transfer_time_ns

import pytest


def test_same_name_same_stream_object():
    rng = RngStreams(7)
    assert rng.stream("link") is rng.stream("link")


def test_streams_reproducible_across_factories():
    a = RngStreams(7).stream("x")
    b = RngStreams(7).stream("x")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_independent():
    rng = RngStreams(7)
    xs = [rng.stream("x").random() for _ in range(5)]
    ys = [rng.stream("y").random() for _ in range(5)]
    assert xs != ys


def test_different_seeds_differ():
    a = RngStreams(1).stream("x").random()
    b = RngStreams(2).stream("x").random()
    assert a != b


def test_adding_stream_does_not_perturb_existing():
    rng1 = RngStreams(3)
    s = rng1.stream("only")
    first = [s.random() for _ in range(5)]

    rng2 = RngStreams(3)
    rng2.stream("extra")  # interleaved creation must not matter
    t = rng2.stream("only")
    second = [t.random() for _ in range(5)]
    assert first == second


def test_cycles_to_ns():
    assert cycles_to_ns(150, 150.0) == pytest.approx(1000.0)
    assert cycles_to_ns(1, 200.0) == pytest.approx(5.0)


def test_cycles_to_ns_rejects_bad_clock():
    with pytest.raises(ValueError):
        cycles_to_ns(10, 0)


def test_transfer_time():
    # 20 Gb/s moves 2.5 bytes per ns
    assert transfer_time_ns(2.5, 20.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        transfer_time_ns(10, 0)
