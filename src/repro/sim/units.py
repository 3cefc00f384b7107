"""Time units and conversions.

The simulation clock counts **nanoseconds** as floats.  All public
constants convert *to* nanoseconds: ``5 * US`` is five microseconds.
"""

NS = 1.0
US = 1_000.0
MS = 1_000_000.0
SEC = 1_000_000_000.0
MIN = 60.0 * SEC
HOUR = 60.0 * MIN
DAY = 24.0 * HOUR


def cycles_to_ns(cycles: float, clock_mhz: float) -> float:
    """Convert a cycle count at ``clock_mhz`` MHz into nanoseconds.

    >>> cycles_to_ns(200, 200.0)
    1000.0
    """
    if clock_mhz <= 0:
        raise ValueError(f"clock must be positive, got {clock_mhz} MHz")
    return cycles * 1_000.0 / clock_mhz


def gbps_to_bytes_per_ns(gbps: float) -> float:
    """Convert gigabits/second into bytes/nanosecond.

    >>> gbps_to_bytes_per_ns(8.0)
    1.0
    """
    return gbps / 8.0


def transfer_time_ns(num_bytes: float, gbps: float) -> float:
    """Serialization time for ``num_bytes`` at ``gbps`` gigabits/second."""
    if gbps <= 0:
        raise ValueError(f"bandwidth must be positive, got {gbps} Gb/s")
    return num_bytes / gbps_to_bytes_per_ns(gbps)
