"""Fluid fast-forward: hybrid analytic/discrete traffic advance.

Discrete-event simulation pays a per-request price: the reference
million-arrival scenario schedules ~9 engine events per arrival, so a
5-second simulated run costs ~40 wall seconds even with a lean kernel.
Most of that work is *steady state* — the cluster is neither failing,
repairing, upgrading, nor crossing an arrival-regime edge, and every
request resolves the same way the last ten thousand did.  The
standard hybrid fluid-flow technique skips it: while the system is
quiescent the traffic source advances simulated time in one analytic
step, updating queue levels, completion counters, and latency
reservoirs directly; the engine only discretizes around *transients*.

Three pieces cooperate:

:class:`FluidCoordinator`
    Owned by the engine (``Engine(fluid=True)``).  Transient sources —
    repair queues, failure injectors, watchdog periods, metrics
    sampling ticks, arrival-regime edges — register here, and anything
    that mutates cluster state calls :meth:`FluidCoordinator
    .note_transient`.  :meth:`FluidCoordinator.window_end` answers the
    one question a fluid traffic source asks: *how far may simulated
    time advance analytically from ``now`` before something discrete
    must be simulated exactly?*  Guarded (state-changing) sources end
    the window ``guard_ns`` early, so the discrete engine is warm —
    in-flight requests rebuilt, queues repopulated — before the
    transient fires; after any noted transient, fluid stays disengaged
    for ``warmup_ns`` so dips and recoveries are simulated exactly.

:class:`FluidModel`
    The analytic queue: ``c`` round-robin FIFO channels with a
    deterministic per-request service time (M/D/c-style).  ``offer``
    returns the exact completion instant of one arrival in O(1) with no
    engine events; per-channel next-free times carry queue build-up
    across arrivals, so bursts that temporarily exceed capacity are
    still modeled exactly.  For sinks without a deterministic service
    time (a live cluster service), :class:`FluidProfile` carries a
    sojourn *sampler* instead and flow balance credits completions at
    the offered rate.

:class:`TransientSource` implementations
    :class:`ScheduledTransients` (a known schedule: planned kills,
    upgrade instants) and :class:`PeriodicTransient` (watchdog sweeps,
    metrics sampling ticks — observers that bound the step so every
    snapshot reflects fully-credited counters, never future ones).

Everything here is opt-in: with ``Engine(fluid=False)`` (the default)
no coordinator exists and every caller takes its unchanged discrete
path, bit-identical to previous releases.
"""

from __future__ import annotations

import bisect
import collections.abc
import dataclasses
import math
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

# Each coordinator starts from these (plain attributes, so a short test
# scenario may shrink them on its own engine).  The guard must exceed
# the sink's worst-case sojourn so the discrete warm-up rebuilds
# in-flight state before a scheduled transient fires; the warm-up keeps
# fluid disengaged after a transient long enough for dips to resolve
# discretely; the minimum window keeps fluid from thrashing on windows
# too short to amortize the step.
DEFAULT_GUARD_NS = 5_000_000.0  # 5 ms
DEFAULT_WARMUP_NS = 5_000_000.0  # 5 ms
DEFAULT_MIN_WINDOW_NS = 1_000_000.0  # 1 ms


class TransientSource(typing.Protocol):  # pragma: no cover - typing aid
    """Anything that knows when it will next need exact simulation."""

    def next_transient_ns(self, now_ns: float) -> float:
        """Time of this source's next transient strictly after ``now``
        (``math.inf`` when none is pending)."""
        ...


class ScheduledTransients:
    """A known schedule of future discrete moments.

    Benchmark drivers that mutate the cluster from *outside* the engine
    (kill a ring between ``run(until=...)`` chunks, trigger a midweek
    upgrade) register their planned instants here so no fluid window
    overshoots a mutation the engine cannot see coming.
    """

    def __init__(self, times_ns: collections.abc.Iterable[float] = ()):
        self.times: list[float] = sorted(times_ns)

    def add(self, when_ns: float) -> None:
        bisect.insort(self.times, when_ns)

    def next_transient_ns(self, now_ns: float) -> float:
        index = bisect.bisect_right(self.times, now_ns)
        return self.times[index] if index < len(self.times) else math.inf

    def __repr__(self) -> str:
        return f"<ScheduledTransients {len(self.times)} planned>"


class PeriodicTransient:
    """Fixed-period ticks anchored at ``anchor_ns`` (first tick at
    ``anchor_ns + period_ns``): watchdog sweeps, metrics sampling.

    These are *observers*: they end a fluid window exactly at the tick
    (no guard lead) so the counters they read are fully credited and
    never include post-tick traffic.
    """

    def __init__(self, period_ns: float, anchor_ns: float = 0.0):
        if period_ns <= 0:
            raise ValueError(f"period must be positive, got {period_ns}")
        self.period_ns = period_ns
        self.anchor_ns = anchor_ns

    def next_transient_ns(self, now_ns: float) -> float:
        elapsed = now_ns - self.anchor_ns
        ticks = math.floor(elapsed / self.period_ns) + 1
        when = self.anchor_ns + ticks * self.period_ns
        if when <= now_ns:  # float floor-division guard
            when += self.period_ns
        return when

    def __repr__(self) -> str:
        return f"<PeriodicTransient every {self.period_ns:.0f}ns>"


@dataclasses.dataclass(frozen=True)
class FluidProfile:
    """A sink's analytic description, queried per fluid window.

    ``servers`` is the number of parallel service channels (c in
    M/D/c).  With ``service_ns`` set, the sink's service time is
    deterministic and :class:`FluidModel` computes *exact* per-arrival
    completion instants.  Without it, ``sampler(rng)`` draws sojourn
    times from the sink's analytic (or empirical) distribution and flow
    balance credits completions at the offered rate — approximate but
    deterministic given the seeded stream.
    """

    servers: int
    service_ns: float | None = None
    sampler: collections.abc.Callable[..., float] | None = None
    # Round-robin position of the sink's dispatch cursor at the moment
    # the profile was taken, so the virtual model assigns arrivals to
    # the same channels the discrete sink would have.
    cursor: int = 0

    def __post_init__(self) -> None:
        if self.servers < 1:
            raise ValueError(f"need at least one server, got {self.servers}")
        if self.service_ns is None and self.sampler is None:
            raise ValueError("profile needs service_ns or a sojourn sampler")
        if self.service_ns is not None and self.service_ns <= 0:
            raise ValueError(f"service time must be positive, got {self.service_ns}")

    @property
    def exact(self) -> bool:
        return self.service_ns is not None


@dataclasses.dataclass(frozen=True)
class FluidWindow:
    """One analytic interval, reported to the sink for reconciliation.

    Latencies are carried as a sum — a window can cover millions of
    arrivals, and the sink's reservoir is reconciled analytically (see
    ``ReservoirSample.merge_analytic``) rather than replayed value by
    value.
    """

    start_ns: float
    end_ns: float
    offered: int
    admitted: int
    rejected: int
    completed: int
    timeouts: int = 0
    latency_sum_ns: float = 0.0

    @property
    def mean_latency_ns(self) -> float:
        return self.latency_sum_ns / self.completed if self.completed else 0.0


class FluidModel:
    """Virtual M/D/c queue: exact completion instants without events.

    ``c`` FIFO channels served round-robin with deterministic service
    time ``D``.  ``offer(t)`` assigns the arrival to the next channel
    and returns its completion instant ``max(t, channel_free) + D`` —
    queue build-up is carried in the per-channel next-free times, so a
    window whose offered rate transiently exceeds ``c/D`` still
    resolves every arrival exactly.  Completions are credited as the
    clock passes them via :meth:`drain`.
    """

    __slots__ = ("servers", "service_ns", "_next_free", "_cursor", "_in_flight")

    def __init__(self, profile: FluidProfile):
        if not profile.exact:
            raise ValueError("FluidModel needs a deterministic service time")
        self.servers = profile.servers
        self.service_ns = profile.service_ns
        self._next_free = [0.0] * profile.servers
        self._cursor = profile.cursor % profile.servers
        # Completion instants of virtual in-flight arrivals, ascending.
        # Round-robin over deterministic channels keeps this list
        # *almost* sorted; insort keeps it exact without heap overhead.
        self._in_flight: list[float] = []

    @property
    def outstanding(self) -> int:
        return len(self._in_flight)

    def offer(self, arrival_ns: float) -> float:
        """Accept one arrival; returns its exact completion instant."""
        index = self._cursor
        self._cursor = (index + 1) % self.servers
        free = self._next_free[index]
        start = free if free > arrival_ns else arrival_ns
        completion = start + self.service_ns
        self._next_free[index] = completion
        in_flight = self._in_flight
        if not in_flight or completion >= in_flight[-1]:
            in_flight.append(completion)
        else:
            bisect.insort(in_flight, completion)
        return completion

    def drain(self, now_ns: float) -> int:
        """Retire completions at or before ``now``; returns the count."""
        in_flight = self._in_flight
        index = bisect.bisect_right(in_flight, now_ns)
        if index:
            del in_flight[:index]
        return index

    def __repr__(self) -> str:
        return (
            f"<FluidModel c={self.servers} D={self.service_ns:.0f}ns "
            f"in_flight={len(self._in_flight)}>"
        )


class FluidCoordinator:
    """The engine-side clearing house for fluid fast-forward.

    Created by ``Engine(fluid=True)`` and reached as ``engine.fluid``.
    Traffic sources ask :meth:`window_end` how far they may advance
    analytically; transient sources :meth:`register`; state mutations
    :meth:`note_transient`.  Purely advisory — a coordinator with no
    registered traffic source changes nothing.
    """

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.guard_ns = DEFAULT_GUARD_NS
        self.warmup_ns = DEFAULT_WARMUP_NS
        self.min_window_ns = DEFAULT_MIN_WINDOW_NS
        # (source, guarded) pairs: guarded sources get the guard lead so
        # discrete simulation is warm before their transient fires;
        # observers (samplers, watchdog ticks) bound the window exactly.
        self._sources: list[tuple[object, bool]] = []
        self._discrete_until = -math.inf
        # -- diagnostics -----------------------------------------------
        self.windows = 0
        self.fluid_time_ns = 0.0
        self.covered_arrivals = 0
        self.transients_noted = 0

    # -- registration ----------------------------------------------------

    def register(self, source: TransientSource, guarded: bool = True) -> None:
        """Add a transient source.  ``guarded=True`` (state-changing
        sources) ends windows ``guard_ns`` early; ``guarded=False``
        (pure observers) bounds them exactly at the transient."""
        self._sources.append((source, guarded))

    def unregister(self, source: TransientSource) -> None:
        self._sources = [(s, g) for s, g in self._sources if s is not source]

    # -- transitions -----------------------------------------------------

    def note_transient(self) -> None:
        """Record that cluster state just changed: fluid stays
        disengaged until ``now + warmup_ns`` so the dip or recovery is
        simulated exactly."""
        self.transients_noted += 1
        until = self.engine.now + self.warmup_ns
        if until > self._discrete_until:
            self._discrete_until = until

    # -- the one question ------------------------------------------------

    def window_end(self, now_ns: float) -> float:
        """Furthest instant fluid may advance to from ``now``.

        Returns ``now`` (no window) inside a post-transient warm-up.
        Otherwise the minimum over every registered source's next
        transient (guarded sources minus the guard lead) and the
        engine's current ``run(until=...)`` deadline — external drivers
        may mutate state the moment a bounded run returns, so no window
        ever overshoots one.
        """
        if now_ns < self._discrete_until:
            return now_ns
        end = self.engine.run_deadline_ns
        for source, guarded in self._sources:
            when = source.next_transient_ns(now_ns)
            if guarded:
                when -= self.guard_ns
            if when < end:
                end = when
        return end if end > now_ns else now_ns

    # -- accounting ------------------------------------------------------

    def credit_window(self, start_ns: float, end_ns: float, arrivals: int) -> None:
        """Record one completed analytic interval (diagnostics)."""
        self.windows += 1
        self.fluid_time_ns += end_ns - start_ns
        self.covered_arrivals += arrivals

    def __repr__(self) -> str:
        return (
            f"<FluidCoordinator windows={self.windows} "
            f"fluid={self.fluid_time_ns / 1e9:.3f}s "
            f"covered={self.covered_arrivals}>"
        )
