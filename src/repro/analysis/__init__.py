"""Measurement, reporting, and trace-replay utilities."""

from repro.analysis.stats import LatencyStats, ReservoirSample, percentile
from repro.analysis.meters import ThroughputMeter
from repro.analysis.replay import PathStep, TraceReplay, replay_trace
from repro.analysis.tables import format_series, format_table

__all__ = [
    "LatencyStats",
    "PathStep",
    "ReservoirSample",
    "ThroughputMeter",
    "TraceReplay",
    "format_series",
    "format_table",
    "percentile",
    "replay_trace",
]
