"""Tests for the analysis utilities: stats, meters, tables."""

import pytest

from repro.analysis import (
    LatencyStats,
    ThroughputMeter,
    format_series,
    format_table,
    percentile,
)
from repro.sim import Engine


def test_percentile_interpolation():
    samples = [10.0, 20.0, 30.0, 40.0]
    assert percentile(samples, 0) == 10.0
    assert percentile(samples, 100) == 40.0
    assert percentile(samples, 50) == 25.0
    assert percentile(samples, 25) == pytest.approx(17.5)


def test_percentile_single_sample():
    assert percentile([7.0], 95) == 7.0


def test_percentile_unsorted_input():
    assert percentile([30.0, 10.0, 20.0], 50) == 20.0


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 150)


def test_latency_stats_fields():
    samples = [float(i) for i in range(1, 1001)]
    stats = LatencyStats.from_samples(samples)
    assert stats.count == 1000
    assert stats.mean == pytest.approx(500.5)
    assert stats.p50 == pytest.approx(500.5)
    assert stats.p95 == pytest.approx(950.05, rel=0.01)
    assert stats.p99 == pytest.approx(990.01, rel=0.01)
    assert stats.max == 1000.0


def test_latency_stats_empty_rejected():
    with pytest.raises(ValueError):
        LatencyStats.from_samples([])


def test_latency_stats_scaled():
    stats = LatencyStats.from_samples([2.0, 4.0]).scaled(0.5)
    assert stats.mean == pytest.approx(1.5)
    assert stats.max == 2.0


def test_throughput_meter_basic():
    eng = Engine()
    meter = ThroughputMeter(eng)

    def worker(eng, meter):
        for _ in range(10):
            yield eng.timeout(1e8)  # one per 0.1 s
            meter.record()

    eng.process(worker(eng, meter))
    eng.run()
    assert meter.count == 10
    assert meter.per_second == pytest.approx(10.0, rel=0.01)


def test_throughput_meter_warmup_window():
    eng = Engine()
    meter = ThroughputMeter(eng)

    def worker(eng, meter):
        for i in range(10):
            yield eng.timeout(1e8)
            meter.record()
            if i == 4:
                meter.start_measurement()

    eng.process(worker(eng, meter))
    eng.run()
    assert meter.warm_count == 5
    assert meter.per_second == pytest.approx(10.0, rel=0.01)


def test_format_table_alignment():
    table = format_table(["a", "long_header"], [[1, 2.5], ["xx", 0.001]])
    lines = table.splitlines()
    assert len(lines) == 4
    assert "long_header" in lines[0]
    assert set(lines[1]) <= {"-", " "}


def test_format_table_title_and_floats():
    table = format_table(["x"], [[1234.5678], [0.004]], title="T")
    assert table.startswith("T\n")
    assert "1.23e+03" in table or "1234" in table


def test_format_series_columns():
    out = format_series("n", {"a": [1, 2], "b": [3, 4]}, [10, 20], title="S")
    lines = out.splitlines()
    assert lines[0] == "S"
    assert lines[1].split() == ["n", "a", "b"]
    assert lines[3].split() == ["10", "1", "3"]


# -- ReservoirSample -----------------------------------------------------


def test_reservoir_exact_below_capacity():
    from repro.analysis import ReservoirSample

    rs = ReservoirSample(capacity=100)
    values = [float(v) for v in range(50)]
    rs.extend(values)
    assert rs == values  # holds every observation, in arrival order
    assert len(rs) == 50
    assert rs.count == 50
    assert rs.total == sum(values)
    assert rs.max == 49.0
    assert rs.percentile(50) == percentile(values, 50)
    summary = rs.summary()
    assert summary.count == 50
    assert summary.p99 == percentile(values, 99)


def test_reservoir_bounded_above_capacity():
    from repro.analysis import ReservoirSample

    rs = ReservoirSample(capacity=200, seed=7)
    n = 20_000
    rs.extend(float(v) for v in range(n))
    assert rs.count == n  # exact counters survive sampling
    assert rs.total == float(sum(range(n)))
    assert rs.max == float(n - 1)
    assert rs.sample_size == 200  # flat memory
    assert abs(rs.mean - (n - 1) / 2) < 1e-9
    # Quantiles are estimates from a uniform sample: loose tolerance.
    assert abs(rs.percentile(50) - n / 2) < 0.15 * n


def test_reservoir_same_seed_is_reproducible():
    from repro.analysis import ReservoirSample

    a = ReservoirSample(capacity=64, seed=3)
    b = ReservoirSample(capacity=64, seed=3)
    for v in range(5_000):
        a.append(float(v))
        b.append(float(v))
    assert a == b
    assert a.percentile(99) == b.percentile(99)


def test_reservoir_clear_resets_rng():
    from repro.analysis import ReservoirSample

    rs = ReservoirSample(capacity=32, seed=11)
    values = [float(v) for v in range(1_000)]
    rs.extend(values)
    first = list(rs)
    rs.clear()
    assert rs.count == 0
    assert not rs
    rs.extend(values)
    assert list(rs) == first  # RNG reset: same replacement decisions


def test_reservoir_empty_summary_and_validation():
    from repro.analysis import ReservoirSample

    with pytest.raises(ValueError):
        ReservoirSample(capacity=0)
    empty = ReservoirSample()
    assert empty.summary().count == 0
    assert empty.summary().p99 == 0.0


class _CountingFloat(float):
    """A float whose ``<`` comparisons are counted (``list.sort`` uses
    only ``<``)."""

    comparisons = 0

    def __lt__(self, other):
        _CountingFloat.comparisons += 1
        return float.__lt__(self, other)


def test_reservoir_read_costs_what_was_added_since_the_last_read():
    from repro.analysis import ReservoirSample

    # A scrambled order: k * 7919 mod a prime visits every residue once.
    values = [_CountingFloat(k * 7919 % 10_007) for k in range(10_010)]
    rs = ReservoirSample()
    for value in values[:10_000]:
        rs.append(value)
    first = rs.summary()
    _CountingFloat.comparisons = 0
    again = rs.summary()
    assert _CountingFloat.comparisons == 0  # nothing new, no work
    assert again == first
    for value in values[10_000:]:
        rs.append(value)
    rs.summary()
    # One pass over the sorted prefix plus a merge; a full sort of
    # 10,010 values costs over 100,000 comparisons.
    assert _CountingFloat.comparisons < 20_000
