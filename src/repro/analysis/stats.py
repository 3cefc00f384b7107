"""Latency statistics: percentiles and bounded-memory samples."""

from __future__ import annotations

import collections.abc
import dataclasses
import math
import random


def percentile(samples: collections.abc.Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile; ``pct`` in [0, 100]."""
    return _interpolate(sorted(samples), pct)


def _interpolate(ordered: list[float], pct: float) -> float:
    """:func:`percentile` of an already sorted list."""
    if not ordered:
        raise ValueError("no samples")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0,100], got {pct}")
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


@dataclasses.dataclass
class LatencyStats:
    """Summary of a latency sample set (ns)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    p999: float
    max: float

    @classmethod
    def empty(cls) -> "LatencyStats":
        """The all-zero summary of zero samples.

        For windows that legitimately completed nothing (e.g. an
        all-outage open-loop run that shed every arrival) — callers
        that consider zero samples a bug should use
        :meth:`from_samples`, which raises.
        """
        return cls(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, p999=0.0, max=0.0)

    @classmethod
    def from_samples(cls, samples: collections.abc.Sequence[float]) -> "LatencyStats":
        if not samples:
            raise ValueError("no samples")
        return cls(
            count=len(samples),
            mean=sum(samples) / len(samples),
            p50=percentile(samples, 50),
            p95=percentile(samples, 95),
            p99=percentile(samples, 99),
            p999=percentile(samples, 99.9),
            max=max(samples),
        )

    def scaled(self, factor: float) -> "LatencyStats":
        return LatencyStats(
            count=self.count,
            mean=self.mean * factor,
            p50=self.p50 * factor,
            p95=self.p95 * factor,
            p99=self.p99 * factor,
            p999=self.p999 * factor,
            max=self.max * factor,
        )

    def to_dict(self) -> dict:
        """Canonical JSON form (stable keys, plain numbers)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "p999": self.p999,
            "max": self.max,
        }


class ReservoirSample:
    """Bounded-memory latency accumulator (Vitter's Algorithm R).

    Count, mean, and max are exact over every observation; percentiles
    are computed from a uniform random sample of at most ``CAPACITY``
    values, so memory stays flat no matter how many latencies a run
    records.  Below capacity the reservoir holds every observation in
    arrival order and all statistics are exact.

    The replacement RNG is private and seeded alike in every reservoir,
    so two same-seed simulations produce identical quantiles.

    Supports enough of the list protocol (``append``, ``len``,
    iteration, indexing, ``==`` against a list, ``clear``) to drop in
    where an unbounded ``latencies_ns`` list used to live.  ``len()``
    returns the *exact observation count* — callers that need the
    sample size should use ``sample_size``.

    Percentiles read a sorted copy of the sample that is brought up to
    date only when read, so a read costs what was added since the last
    one.  Below capacity the sample only grows at its end: a read
    extends the copy with the new tail and re-sorts it, which Timsort
    does as a merge of two sorted runs.  A read with nothing new does no
    work.  A replacement at capacity marks the copy stale, and the next
    read sorts the whole sample once.
    """

    CAPACITY = 100_000

    __slots__ = (
        "count",
        "total",
        "_max",
        "_sample",
        "_rng",
        "_ordered",
        "_ordered_len",
    )

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self._max = 0.0
        self._sample: list[float] = []
        # The sorted copy holds ``_sample[:_ordered_len]``; a length of
        # -1 marks it stale after a replacement at capacity.
        self._ordered: list[float] = []
        self._ordered_len = 0
        # simlint: allow-rng -- the reservoir is engine-free, and clear()
        # must restore the exact replacement stream.
        self._rng = random.Random(0)

    # -- accumulation --------------------------------------------------

    def append(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self._max:
            self._max = value
        sample = self._sample
        if len(sample) < self.CAPACITY:
            sample.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.CAPACITY:
                sample[slot] = value
                self._ordered_len = -1

    def extend(self, values: collections.abc.Iterable[float]) -> None:
        for value in values:
            self.append(value)

    def merge_analytic(self, n: int, mean_value: float) -> None:
        """Bulk-merge ``n`` analytically credited observations of
        ``mean_value``.

        Fluid fast-forward credits whole windows of completions in one
        step; appending them one by one would defeat the point.  Count
        and total update exactly.  Below capacity each merged value is
        materialized, so small runs stay exact.  At capacity the
        retained sample receives the *expected* number of Algorithm-R
        slot replacements for ``n`` sequential appends — ``CAPACITY *
        ln(count_after / count_before)``, probabilistically rounded on
        the reservoir's private stream — so quantiles track the merged
        distribution while the merge stays O(capacity), not O(n).
        """
        if n < 0:
            raise ValueError(f"merge size must be >= 0, got {n}")
        if n == 0:
            return
        sample = self._sample
        capacity = self.CAPACITY
        rng = self._rng
        before = self.count
        self.count = before + n
        self.total += mean_value * n
        filled = min(n, capacity - len(sample))
        sample.extend([mean_value] * filled)
        leftover = n - filled
        if leftover > 0:
            # Append number j replaces a random slot with probability
            # capacity/j; the expectation over the merged range is the
            # harmonic sum, tightly approximated by its integral.
            start = before + filled
            expected = capacity * math.log((start + leftover) / start)
            replacements = int(expected)
            if rng.random() < expected - replacements:
                replacements += 1
            if replacements:
                self._ordered_len = -1
            for _ in range(replacements):
                sample[rng.randrange(capacity)] = mean_value
        if mean_value > self._max:
            self._max = mean_value

    def clear(self) -> None:
        """Reset to the just-constructed state (RNG included)."""
        self.count = 0
        self.total = 0.0
        self._max = 0.0
        self._sample.clear()
        self._ordered.clear()
        self._ordered_len = 0
        # simlint: allow-rng -- restores the constructor's stream exactly.
        self._rng = random.Random(0)

    # -- list protocol --------------------------------------------------

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0

    def __iter__(self) -> collections.abc.Iterator[float]:
        return iter(self._sample)

    def __getitem__(self, index):
        return self._sample[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ReservoirSample):
            return self.count == other.count and self._sample == other._sample
        if isinstance(other, (list, tuple)):
            return self.count == len(other) and self._sample == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    # -- statistics -----------------------------------------------------

    @property
    def sample_size(self) -> int:
        """Number of values retained for percentile estimation."""
        return len(self._sample)

    @property
    def mean(self) -> float:
        """Exact mean over all observations (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    @property
    def max(self) -> float:
        """Exact maximum over all observations (0.0 when empty)."""
        return self._max

    def _sorted_view(self) -> list[float]:
        """The retained sample in ascending order, updated in place."""
        ordered = self._ordered
        sample = self._sample
        seen = self._ordered_len
        if seen < 0:
            ordered[:] = sample
            ordered.sort()
        elif seen < len(sample):
            ordered.extend(sample[seen:])
            ordered.sort()
        self._ordered_len = len(sample)
        return ordered

    def percentile(self, pct: float) -> float:
        """Percentile from the retained sample (exact below capacity)."""
        return _interpolate(self._sorted_view(), pct)

    def summary(self) -> LatencyStats:
        """Exact count/mean/max with sampled percentiles.

        Returns :meth:`LatencyStats.empty` for zero observations rather
        than raising, matching how run-level reports treat windows that
        completed nothing.
        """
        if self.count == 0:
            return LatencyStats.empty()
        ordered = self._sorted_view()
        return LatencyStats(
            count=self.count,
            mean=self.mean,
            p50=_interpolate(ordered, 50),
            p95=_interpolate(ordered, 95),
            p99=_interpolate(ordered, 99),
            p999=_interpolate(ordered, 99.9),
            max=self._max,
        )

    def __repr__(self) -> str:
        return (
            f"<ReservoirSample n={self.count} "
            f"sample={len(self._sample)}/{self.CAPACITY}>"
        )
