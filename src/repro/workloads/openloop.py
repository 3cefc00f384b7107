"""One load generator for every traffic shape: open- and closed-loop.

The paper drives its fabric two ways.  Figures 8-13 use closed-loop CPU
threads (send, sleep until the response, repeat) to measure stage and
pipeline capacity (§5); Figures 14-15 offer open-loop injection rates,
the "heavy traffic from millions of users" whose arrivals occur at the
offered rate whether or not earlier requests have finished.
:class:`OpenLoopInjector` runs both populations over one dispatch
body (``_handle``), one completion gate and one set of
:class:`OpenLoopStats` counters:

* an :class:`ArrivalProcess` — memoryless Poisson, on/off bursts, or a
  sinusoidal diurnal curve — offers open-loop arrivals to any sink
  exposing the ``submit(request, timeout_ns=...)`` generator protocol.
  A service's sink is its :class:`~repro.cluster.endpoint.ServiceEndpoint`
  from ``manager.endpoint(name)`` — a stable virtual front door that
  resolves the live service at each dispatch, so the workload survives
  re-placement, upgrades, and even drain + re-apply without rewiring.
  A bare :class:`~repro.cluster.load_balancer.LoadBalancer` or a single
  :class:`~repro.cluster.deployment.Deployment` is a sink too, for
  experiments below the service level.
* a :class:`ClosedLoop` population runs N threads on one injection
  server of a :class:`~repro.cluster.deployment.Deployment`, each
  sending its next request once its last one resolves; ``server`` and
  ``include_prep`` go through to ``Deployment.submit``.

When a ``max_queue_depth`` is set, open-loop arrivals that would push
the sink's in-flight count past the limit are rejected at admission
instead of growing the backlog without bound — load shedding at the
front door.  A closed population needs no such limit: its threads are
the bound.

Shed-on-outage semantics: a request that finds *no* servable ring at
dispatch time (every replica momentarily unservable — e.g. mid
ring-rotation, or the window between a whole-ring failure and its
reconciliation) is likewise counted as ``rejected`` and dropped, the
§3.2 "time out and divert the request" behavior applied at the front
door.  The injector keeps offering arrivals through the outage, so
throughput recovers as soon as the control plane restores a replica.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import math
import random
import typing

from repro.analysis import LatencyStats, ReservoirSample
from repro.cluster.load_balancer import NoHealthyDeployment
from repro.sim import Engine, Event
from repro.sim.fluid import FluidModel, FluidProfile, FluidWindow
from repro.sim.units import SEC

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.fabric.server import Server

# Largest relative rate change a fluid window may span (see
# ArrivalProcess.fluid_horizon_ns).
FLUID_RATE_TOL = 0.05


class ArrivalProcess:
    """Base class: a (possibly time-varying) offered-load intensity."""

    def rate_at(self, now_ns: float) -> float:
        raise NotImplementedError

    def constant_rate_per_s(self) -> float | None:
        """The rate if it never varies, else None.

        A constant rate lets the injector skip the per-arrival
        ``rate_at`` call and precompute the exponential scale once.
        """
        return None

    def interarrival_ns(self, rng: random.Random, now_ns: float) -> float:
        """Exponential gap at the instantaneous rate (thinning-free)."""
        rate = self.rate_at(now_ns)
        if rate <= 0.0:
            raise ValueError(f"arrival rate must be positive, got {rate}")
        return rng.expovariate(1.0) * (SEC / rate)

    def next_regime_edge_ns(self, now_ns: float) -> float:
        """Next instant the rate changes *discontinuously* (``inf`` if
        never).  Fluid fast-forward windows never span an edge: the
        queue dynamics around a square-wave burst onset are exactly the
        transients the hybrid mode must simulate discretely."""
        return math.inf

    def fluid_horizon_ns(self, now_ns: float) -> float:
        """Longest analytic window from ``now`` over which the rate
        stays within ``FLUID_RATE_TOL`` of its current value (``inf`` for
        piecewise-constant processes).  A slope bound, not an edge:
        smoothly-varying processes (diurnal) are chopped into windows
        short enough that each is near-homogeneous."""
        return math.inf


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at a constant offered rate."""

    def __init__(self, rate_per_s: float):
        if rate_per_s <= 0:
            raise ValueError(f"rate must be positive, got {rate_per_s}")
        self.rate_per_s = rate_per_s

    def rate_at(self, now_ns: float) -> float:
        return self.rate_per_s

    def constant_rate_per_s(self) -> float:
        return self.rate_per_s


class BurstyArrivals(ArrivalProcess):
    """On/off square-wave bursts: ``burst`` rate for ``duty`` of each period."""

    def __init__(
        self,
        base_rate_per_s: float,
        burst_rate_per_s: float,
        period_s: float,
        duty: float = 0.5,
    ):
        if base_rate_per_s <= 0 or burst_rate_per_s <= 0:
            raise ValueError("rates must be positive")
        if period_s <= 0:
            raise ValueError(f"period must be positive, got {period_s}")
        if not 0.0 < duty < 1.0:
            raise ValueError(f"duty must be in (0,1), got {duty}")
        self.base_rate_per_s = base_rate_per_s
        self.burst_rate_per_s = burst_rate_per_s
        self.period_ns = period_s * SEC
        self.duty = duty

    def rate_at(self, now_ns: float) -> float:
        phase = (now_ns % self.period_ns) / self.period_ns
        return self.burst_rate_per_s if phase < self.duty else self.base_rate_per_s

    def next_regime_edge_ns(self, now_ns: float) -> float:
        period = self.period_ns
        cycle_start = now_ns - (now_ns % period)
        duty_edge = cycle_start + self.duty * period
        edge = duty_edge if duty_edge > now_ns else cycle_start + period
        if edge <= now_ns:  # float modulo guard at exact boundaries
            edge += period
        return edge


class DiurnalArrivals(ArrivalProcess):
    """Sinusoidal day curve: ``mean * (1 + amplitude * sin(2πt/period))``."""

    def __init__(
        self,
        mean_rate_per_s: float,
        amplitude: float = 0.5,
        period_s: float = 86_400.0,
    ):
        if mean_rate_per_s <= 0:
            raise ValueError(f"mean rate must be positive, got {mean_rate_per_s}")
        if not 0.0 <= amplitude < 1.0:
            raise ValueError(f"amplitude must be in [0,1), got {amplitude}")
        if period_s <= 0:
            raise ValueError(f"period must be positive, got {period_s}")
        self.mean_rate_per_s = mean_rate_per_s
        self.amplitude = amplitude
        self.period_ns = period_s * SEC

    def rate_at(self, now_ns: float) -> float:
        phase = 2.0 * math.pi * (now_ns % self.period_ns) / self.period_ns
        return self.mean_rate_per_s * (1.0 + self.amplitude * math.sin(phase))

    def fluid_horizon_ns(self, now_ns: float) -> float:
        if self.amplitude == 0.0:
            return math.inf
        # |d rate/dt| <= mean * amplitude * 2π/period, so the rate moves
        # by at most FLUID_RATE_TOL * rate(now) over this window.
        max_slope = self.mean_rate_per_s * self.amplitude * 2.0 * math.pi / self.period_ns
        return FLUID_RATE_TOL * self.rate_at(now_ns) / max_slope


@dataclasses.dataclass(frozen=True)
class ClosedLoop:
    """A closed-loop population (§5): ``threads`` CPU threads on one
    injection ``server``, each sending its next request only once its
    last one has resolved (response or timeout).

    Pass it as an :class:`OpenLoopInjector`'s arrival source over a
    :class:`~repro.cluster.deployment.Deployment`; ``server`` and
    ``include_prep`` (the adapter's host-side software portion) go
    through to ``Deployment.submit``.  ``run(count)`` splits ``count``
    requests evenly over the threads.
    """

    server: "Server"
    threads: int
    include_prep: bool = True

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError(f"need at least one thread, got {self.threads}")


@dataclasses.dataclass
class OpenLoopStats:
    """Counters and samples from one open-loop run.

    ``latencies_ns`` is a bounded :class:`ReservoirSample`, not a list:
    a 10M-arrival run keeps memory flat while count/mean/max stay exact
    and percentiles come from a uniform 100k-value sample (exact below
    that).  It still supports ``append``/``len``/iteration/indexing, so
    existing consumers read it like the list it replaced.
    """

    offered: int = 0
    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    timeouts: int = 0
    latencies_ns: ReservoirSample = dataclasses.field(
        default_factory=ReservoirSample
    )

    @property
    def admission_fraction(self) -> float:
        """Admitted share of offered arrivals; 0.0 for a zero-arrival
        window (an all-outage run must summarise, not raise)."""
        return self.admitted / self.offered if self.offered else 0.0

    def to_dict(self) -> dict:
        """Canonical JSON form of the admission counters (for the
        exported metrics series; samples stay in-process)."""
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "timeouts": self.timeouts,
        }

    def stats(self) -> LatencyStats:
        """Latency summary — empty-safe: a window during which every
        arrival was shed (total outage) reports the zero summary
        instead of raising on the empty sample set."""
        return self.latencies_ns.summary()


class _SinkProtocol(typing.Protocol):  # pragma: no cover - typing aid
    outstanding: int

    def submit(self, request, timeout_ns: float) -> collections.abc.Generator: ...


class _RegimeEdges:
    """Adapter registering an arrival process's rate edges as a
    :class:`~repro.sim.fluid.TransientSource` for the length of a run."""

    __slots__ = ("arrivals",)

    def __init__(self, arrivals: ArrivalProcess):
        self.arrivals = arrivals

    def next_transient_ns(self, now_ns: float) -> float:
        return self.arrivals.next_regime_edge_ns(now_ns)


class OpenLoopInjector:
    """Drives a sink with open-loop arrivals plus admission control, or
    with a :class:`ClosedLoop` population of threads.

    Run completion is a *counter gate*: every in-flight handler holds
    one count, the arrival source (or each closed-loop thread) holds
    one until it has sent its last request, and the done event fires
    when the count drains to zero — O(1) memory per run instead of one
    list slot plus one condition callback per admitted arrival.

    On an engine built with ``Engine(fluid=True)`` the injector
    fast-forwards quiescent stretches analytically (see
    :meth:`_arrivals_body`); on any other engine every arrival is
    dispatched to the sink.
    """

    def __init__(
        self,
        engine: Engine,
        sink: "_SinkProtocol",
        arrivals: ArrivalProcess,
        pool: collections.abc.Sequence,
        max_queue_depth: int | None = None,
        timeout_ns: float = 5 * SEC,
        seed_tag: str = "openloop",
    ):
        if not pool:
            raise ValueError("request pool must be non-empty")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(f"queue depth must be positive, got {max_queue_depth}")
        self.engine = engine
        self.sink = sink
        self.arrivals = arrivals
        self.pool = list(pool)
        self.max_queue_depth = max_queue_depth
        self.timeout_ns = timeout_ns
        self.stats = OpenLoopStats()
        self._rng = engine.rng.stream(f"openloop:{seed_tag}")
        self._fluid_rng = engine.rng.stream(f"openloop:{seed_tag}:fluid")
        self._pool_index = 0
        self._open = 0  # in-flight handlers + the arrival source itself
        self._done: Event | None = None
        self._edges = _RegimeEdges(arrivals)
        self._model: FluidModel | None = None  # virtual queue across fluid windows

    def _next_request(self):
        request = self.pool[self._pool_index % len(self.pool)]
        self._pool_index += 1
        return request

    def run(self, count: int) -> Event:
        """Offer ``count`` arrivals; the event fires when all admitted
        requests have resolved (response, timeout, or rejection).  A
        closed population splits ``count`` evenly over its threads."""
        if count < 1:
            raise ValueError(f"need at least one arrival, got {count}")
        if self._done is not None and not self._done.triggered:
            raise RuntimeError("injector already has a run in flight")
        done = self.engine.event(name="openloop:done")
        self._done = done
        population = self.arrivals
        if isinstance(population, ClosedLoop):
            self._open = population.threads  # one count per thread
            share, extra = divmod(count, population.threads)
            name = f"closed:{population.server.machine_id}"
            for index in range(population.threads):
                requests = share + (index < extra)
                self.engine.process(self._closed_body(requests), name=name)
            return done
        self._open = 1  # the arrival source's own count
        if self.engine.fluid is not None:
            # This run's rate edges bound every fluid window on the
            # engine until the run is over (unregistered in _close_one).
            self.engine.fluid.register(self._edges, guarded=False)
        self.engine.process(self._arrivals_body(count), name="openloop.src")
        return done

    def _close_one(self) -> None:
        self._open -= 1
        if self._open == 0:
            if self.engine.fluid is not None:
                self.engine.fluid.unregister(self._edges)
            self._done.succeed(self.stats)

    def _closed_body(self, requests: int) -> collections.abc.Generator:
        """One closed-loop thread: send a request from the population's
        server, wait for it to resolve in :meth:`_handle`, repeat."""
        population = self.arrivals
        submit = self.sink.submit
        stats = self.stats
        for _ in range(requests):
            stats.offered += 1
            stats.admitted += 1
            self._open += 1
            yield from self._handle(
                submit(
                    self._next_request(),
                    server=population.server,
                    timeout_ns=self.timeout_ns,
                    include_prep=population.include_prep,
                ),
                self.engine.now,
            )
        self._close_one()  # release the thread's own count

    def _arrivals_body(self, count: int) -> collections.abc.Generator:
        """The arrival source, for both modes.

        Each pass draws the next arrival — the loop's only RNG draw —
        and places it in a window.  A discrete arrival is a window of
        zero width: the source sleeps to the arrival instant and
        dispatches it to the real sink.  On a fluid engine, whenever the
        cluster is quiescent (no transient due within the guard, no
        regime edge, real sink idle) and the sink publishes a
        :class:`~repro.sim.fluid.FluidProfile`, the window widens to the
        next transient: every arrival up to its end is credited
        analytically — admission, completion and latency sample from a
        virtual M/D/c queue (exact profiles) or the sink's sojourn
        sampler — and one engine event jumps the clock across it.

        Exactness: both modes draw the same arrival instants, and a
        deterministic-service profile reproduces the sink's per-channel
        dynamics (same round-robin assignment, same completion
        instants), so offered/admitted/rejected/completed totals and
        the final clock match a same-seed discrete run.  Window stats
        are credited *before* the jump, so observers waking at the
        window edge (metrics ticks, watchdogs) read settled counters.
        """
        engine = self.engine
        coordinator = engine.fluid
        timeout = engine.timeout
        spawn = engine.process
        stats = self.stats
        sink = self.sink
        arrivals = self.arrivals
        max_depth = self.max_queue_depth
        request_timeout = self.timeout_ns
        latencies = stats.latencies_ns
        rng = self._rng
        fluid_rng = self._fluid_rng
        # Constant-rate fast path: precompute the exponential scale once
        # and draw straight from the hoisted ``expovariate`` instead of
        # calling ``rate_at`` per arrival.  Same draws either way.
        expovariate = rng.expovariate
        constant_rate = arrivals.constant_rate_per_s()
        scale = (SEC / constant_rate) if constant_rate else None
        interarrival = arrivals.interarrival_ns
        fluid = coordinator is not None and hasattr(sink, "fluid_profile")
        note_fluid = getattr(sink, "note_fluid", None)

        remaining = count
        t = engine.now  # the last arrival instant: the next gap starts here
        start = None  # start of the open analytic window (None: none open)
        window_end = -math.inf
        tail_ns = 0.0  # latest analytically credited completion
        while True:
            if remaining:
                if scale is not None:
                    arrive_at = t + expovariate(1.0) * scale
                else:
                    arrive_at = t + interarrival(rng, t)
            if not remaining or arrive_at > window_end:
                if start is not None:
                    # -- close the analytic window and jump to its end ----
                    self._pool_index += admitted
                    stats.offered += offered
                    stats.admitted += admitted
                    stats.rejected += rejected
                    stats.completed += completed
                    stats.timeouts += timeouts
                    coordinator.credit_window(start, window_end, offered)
                    if note_fluid is not None:
                        note_fluid(
                            FluidWindow(
                                start_ns=start,
                                end_ns=window_end,
                                offered=offered,
                                admitted=admitted,
                                rejected=rejected,
                                completed=completed,
                                timeouts=timeouts,
                                latency_sum_ns=latency_sum,
                            )
                        )
                    # Mid-run the held arrival is placed by the next
                    # pass; after the last one, run past the final
                    # virtual completion so `done` fires no earlier than
                    # in a discrete run.
                    if remaining:
                        target = window_end
                    else:
                        target = tail_ns if tail_ns > t else t
                    start = None
                    window_end = -math.inf
                    yield timeout(target - engine.now)
                if not remaining:
                    break
                now = engine.now
                window = self._fluid_window(now, arrive_at) if fluid else None
                if window is None:
                    # -- zero-width window: dispatch to the real sink -----
                    yield timeout(arrive_at - now)
                    remaining -= 1
                    t = now = engine.now
                    stats.offered += 1
                    if max_depth is not None and sink.outstanding >= max_depth:
                        stats.rejected += 1
                    else:
                        stats.admitted += 1
                        self._open += 1
                        request = self._next_request()
                        spawn(self._handle(sink.submit(request, timeout_ns=request_timeout), now))
                    continue
                profile, window_end = window
                start = now
                model = self._model if profile.exact else None
                sampler = profile.sampler
                offered = admitted = rejected = completed = timeouts = 0
                latency_sum = 0.0
            # -- credit one arrival inside the analytic window -------------
            t = arrive_at
            offered += 1
            remaining -= 1
            if model is not None:
                model.drain(t)
                if max_depth is not None and model.outstanding >= max_depth:
                    rejected += 1
                    continue
                sojourn = model.offer(t) - t
            else:
                # Sampler mode (live cluster sinks): no virtual queue —
                # admission is assumed (steady state implies the depth
                # limit is slack) and sojourns are drawn from the sink's
                # empirical distribution on a dedicated seeded stream.
                sojourn = sampler(fluid_rng)
            admitted += 1
            if sojourn > request_timeout:
                timeouts += 1
            else:
                completed += 1
                latency_sum += sojourn
                latencies.append(sojourn)
            if t + sojourn > tail_ns:
                tail_ns = t + sojourn
        self._close_one()  # release the source's own count

    def _fluid_window(
        self, now: float, arrive_at: float
    ) -> tuple[FluidProfile, float] | None:
        """``(profile, window_end)`` if an analytic window covering
        ``arrive_at`` can open at ``now``, else None."""
        sink = self.sink
        if sink.outstanding:
            return None
        coordinator = self.engine.fluid
        window_end = coordinator.window_end(now)
        horizon = now + self.arrivals.fluid_horizon_ns(now)
        if horizon < window_end:
            window_end = horizon
        if window_end - now < coordinator.min_window_ns or arrive_at > window_end:
            return None
        profile = sink.fluid_profile()
        if profile is None:
            return None
        if profile.exact:
            model = self._model
            if model is not None:
                model.drain(now)
            if model is None or model.outstanding == 0:
                # No live virtual tail: resync channel state from the
                # sink (its cursor moves under discrete interludes).
                self._model = FluidModel(profile)
            elif model.servers != profile.servers or model.service_ns != profile.service_ns:
                return None  # the sink reshaped under a live tail
        return profile, window_end

    def _handle(
        self, submission: collections.abc.Generator, arrived_ns: float
    ) -> collections.abc.Generator:
        """Wait out one admitted request's ``sink.submit`` generator and
        count how it resolved; releases the request's gate count."""
        try:
            response = yield from submission
        except NoHealthyDeployment:
            # Every ring is momentarily unservable (mid ring-rotation or
            # mid-reconcile).  Shed the request at the front door and
            # keep the run alive — the outage window is exactly when the
            # control plane is busy restoring capacity.  The arrival was
            # provisionally admitted before dispatch; reclassify it so
            # ``offered == admitted + rejected`` holds and the admission
            # fraction stays honest through outages.
            self.stats.admitted -= 1
            self.stats.rejected += 1
            return
        else:
            if response is None:
                self.stats.timeouts += 1
            else:
                self.stats.completed += 1
                self.stats.latencies_ns.append(self.engine.now - arrived_ns)
        finally:
            self._close_one()
