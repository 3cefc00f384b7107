"""The simulation engine: a causally ordered event loop.

Time is a float in nanoseconds.  Determinism is guaranteed by a
monotonic tie-break sequence number on every scheduled entry, so two
runs with the same seed produce identical traces.

Operations that finish when they are called — a ``Store`` or ``Fifo``
put with room, a get with an item waiting, a free ``Resource`` unit,
the end of a process that nobody joins — never enter the queue: their
event comes back already dispatched (for a ``Fifo`` put, the engine's
one shared ``finished`` event), and a process that yields it continues
in the same resume.  Everything else queues, three-tiered for
per-event cost (the ceiling on million-arrival experiments):

* a FIFO **ready deque** for events triggered by ``succeed()`` /
  ``fail()``, dispatching at the current instant after everything
  already pending there — O(1) instead of a heap push;
* a binary **heap** for near deadlines;
* a banded **timer wheel** for far deadlines (coarse time bands, one
  list per band, flushed into the heap when the clock approaches the
  band).  Cancelled timeouts parked in a band are dropped at flush time
  without ever touching the heap.

All three tiers dispatch in strict global ``(time, seq)`` order, so the
event order is bit-identical to a single-heap engine
(``timer_wheel=False`` keeps the heap-only arrangement for A/B tests).

Deadlines that usually never fire — a request's guard, armed for
milliseconds and disarmed microseconds later — do not enter the queue
at all: they wait in ``engine.deadlines``, a
:class:`~repro.sim.deadlines.DeadlineQueue`, which keeps one timer in
the queue and dispatches each expiry under the key a ``Timeout`` would
have had.
"""

from __future__ import annotations

import collections.abc
import heapq
import math
import os
import typing
from collections import deque

from repro.sim.deadlines import DeadlineQueue
from repro.sim.events import Event, Timeout
from repro.sim.rng import RngStreams

if typing.TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Iterator

    from repro.sim.fluid import FluidCoordinator
    from repro.sim.process import Process
    from repro.sim.sanitizer import SimSanitizer

# One timer-wheel band covers this much simulated time.  Coarse enough
# that band bookkeeping is negligible, fine enough that a cancelled
# request deadline (armed ~ms-to-s ahead, cancelled ~µs later) almost
# always dies in its band, never reaching the heap.
DEFAULT_BAND_NS = 1_000_000.0  # 1 ms


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. scheduling in the past)."""


class Engine:
    """Discrete-event engine owning the clock, the queue, and the RNG.

    Typical use::

        eng = Engine(seed=42)

        def worker(eng):
            yield eng.timeout(5.0)
            return "done"

        proc = eng.process(worker(eng))
        eng.run()
        assert proc.value == "done"

    Diagnostics: :attr:`events_dispatched` counts dispatched events,
    :attr:`events_dropped` counts cancelled entries that were dropped
    without dispatch (lazy deletion), and :attr:`peak_queue_length`
    tracks the high-water mark of pending entries across all tiers.
    """

    def __init__(
        self,
        seed: int = 0,
        timer_wheel: bool = True,
        timer_band_ns: float = DEFAULT_BAND_NS,
        sanitize: bool | None = None,
        tie_break_salt: int = 0,
        fluid: bool = False,
    ):
        if timer_band_ns <= 0:
            raise ValueError(f"band width must be positive, got {timer_band_ns}")
        self.now: float = 0.0
        self.rng = RngStreams(seed)
        # -- fluid fast-forward (opt-in hybrid analytic mode) --
        self.fluid: FluidCoordinator | None = None
        if fluid:
            from repro.sim.fluid import FluidCoordinator

            self.fluid = FluidCoordinator(self)
        # Deadline of the current bounded run(until=...), math.inf
        # outside one.  Fluid windows never advance past it: an external
        # driver may mutate cluster state the moment a bounded run
        # returns, and the analytic step must not have credited traffic
        # beyond that point.
        self.run_deadline_ns: float = math.inf
        # -- SimSanitizer (opt-in runtime race/leak detection) --
        if sanitize is None:
            sanitize = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")
        self.sanitizer: SimSanitizer | None = None
        if sanitize:
            from repro.sim.sanitizer import SimSanitizer

            self.sanitizer = SimSanitizer(self)
        # A nonzero salt permutes the tie-break keys of same-timestamp
        # events — a *legal alternative schedule* the dual-run race
        # detector compares against the FIFO baseline.  Salted engines
        # route every entry through the heap (the ready-deque/wheel
        # fast paths assume monotonic keys).
        self._tie_salt = tie_break_salt
        if tie_break_salt:
            timer_wheel = False
        self._queue: list[tuple[float, int, Event]] = []  # near-deadline heap
        self._ready: deque[tuple[float, int, Event]] = deque()  # triggered, due now
        self._seq = 0
        self._running = False
        self._nondaemon_pending = 0
        self._pending = 0  # entries across all tiers
        self.events_dispatched = 0
        self.events_dropped = 0
        self.peak_queue_length = 0
        # -- timer wheel (far deadlines, banded) --
        self._wheel = timer_wheel
        self._band_ns = timer_band_ns
        self._bands: dict[int, list[tuple[float, int, Event]]] = {}
        self._band_heap: list[int] = []  # pending band indices, min first
        self._band_floor = 0  # bands <= floor flush straight to the heap
        # Start time of the earliest pending band (inf when none): the
        # run loops compare against this plain float instead of calling
        # into the flush machinery on every pop.
        self._band_start = math.inf
        # Cancelled-but-still-queued entries.  Once they outnumber the
        # live entries the queue is compacted, so a workload that arms
        # and disarms one guard deadline per request runs in flat
        # memory instead of accumulating every dead deadline until its
        # band comes due.
        self._cancelled_pending = 0
        # Request guards and other deadlines that usually never fire.
        self.deadlines = DeadlineQueue(self)
        # The one already-dispatched event that an operation finished
        # when it is called may return instead of allocating its own (a
        # put into a ``Fifo`` with room): a waiter continues at once.
        self.finished = Event(self, "finished")._complete()

    # -- scheduling ------------------------------------------------------

    def _schedule_at(self, when: float, event: Event, seq: int | None = None) -> None:
        """Schedule ``event`` at ``when`` under the next tie-break key, or
        under ``seq``, a key taken earlier with :meth:`_reserve_key`."""
        if when < self.now:
            raise SimulationError(f"cannot schedule at {when} < now {self.now}")
        if seq is None:
            self._seq += 1
            seq = self._seq ^ self._tie_salt  # as _reserve_key, inlined
        event._scheduled = True
        if not event._daemon:
            self._nondaemon_pending += 1
        pending = self._pending = self._pending + 1
        if pending > self.peak_queue_length:
            self.peak_queue_length = pending
        if self._wheel:
            band = int(when // self._band_ns)
            if band * self._band_ns > when:  # float floor-division guard
                band -= 1
            if band > self._band_floor:
                bucket = self._bands.get(band)
                if bucket is None:
                    self._bands[band] = [(when, seq, event)]
                    heapq.heappush(self._band_heap, band)
                    start = self._band_heap[0] * self._band_ns
                    if start < self._band_start:
                        self._band_start = start
                else:
                    bucket.append((when, seq, event))
                return
        heapq.heappush(self._queue, (when, seq, event))

    def _reserve_key(self) -> int:
        """Take the next tie-break key without scheduling anything.

        :class:`~repro.sim.deadlines.DeadlineQueue` reserves a key per
        deadline and later schedules its timer under it, so an expiry
        takes the place in the ``(time, key)`` order that a ``Timeout``
        armed at the same moment would have had.
        """
        self._seq += 1
        # XOR with the salt is a bijection on the key space: uniqueness
        # (hence a total order) is preserved while the relative order of
        # same-timestamp entries is permuted.  An unsalted engine XORs 0.
        return self._seq ^ self._tie_salt

    def _schedule_trigger(self, event: Event) -> None:
        """Schedule dispatch of an already-triggered event at ``now``.

        Triggered events dispatch at the current instant, after
        everything already pending at this timestamp — a FIFO append,
        no heap involved.
        """
        self._seq += 1
        event._scheduled = True
        if not event._daemon:
            self._nondaemon_pending += 1
        pending = self._pending = self._pending + 1
        if pending > self.peak_queue_length:
            self.peak_queue_length = pending
        if self._tie_salt:
            # Salted engines have no FIFO tier: the permuted key decides
            # the order among same-timestamp entries via the heap.
            heapq.heappush(self._queue, (self.now, self._seq ^ self._tie_salt, event))
        else:
            self._ready.append((self.now, self._seq, event))

    def _note_cancel(self) -> None:
        """Record a cancellation; compact the queue when dead weight wins.

        Dropping entries eagerly would be O(n) per cancel; instead the
        sweep runs only when cancelled entries outnumber live ones (and
        at least a thousand have piled up), making it amortised O(1)
        per cancellation while bounding the queue at ~2x the live size.
        """
        self._cancelled_pending += 1
        if self._cancelled_pending > 1024 and self._cancelled_pending * 2 > self._pending:
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled, untriggered entry from all queue tiers."""
        dropped = 0
        queue = self._queue
        live = [e for e in queue if not (e[2].cancelled and not e[2].triggered)]
        if len(live) != len(queue):
            dropped += len(queue) - len(live)
            heapq.heapify(live)
            self._queue = live
        bands = self._bands
        for band, bucket in bands.items():
            kept = [e for e in bucket if not (e[2].cancelled and not e[2].triggered)]
            if len(kept) != len(bucket):
                dropped += len(bucket) - len(kept)
                # Emptied buckets stay in place: their index is still on
                # the band heap and is popped (harmlessly) at flush time.
                bands[band] = kept
        self._pending -= dropped
        self.events_dropped += dropped
        self._cancelled_pending = 0

    def mark_daemon(self, event: Event) -> None:
        """Tag a pending event as daemon work.

        Daemon events (periodic background services like the SEU
        scrubber) do not keep :meth:`run` alive: a bare ``run()``
        returns once only daemon work remains.  ``run(until=...)``
        still executes daemon events up to the deadline.  A daemon
        process must not be a required link in a non-daemon dataflow
        chain — handoffs to daemons may be left undispatched by a
        bare ``run()``.
        """
        if not event._daemon:
            event._daemon = True
            if event._scheduled:
                self._nondaemon_pending -= 1

    def _unmark_daemon(self, event: Event) -> None:
        """Undo :meth:`mark_daemon` on a pending event: it keeps a bare
        :meth:`run` alive again."""
        if event._daemon:
            event._daemon = False
            if event._scheduled:
                self._nondaemon_pending += 1

    # -- factories -------------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create an untriggered event."""
        return Event(self, name)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event that fires ``delay`` ns from now."""
        timeout = Timeout(self, delay, value)
        if self.sanitizer is not None:
            self.sanitizer.note_timeout(timeout)
        return timeout

    def process(
        self,
        generator: collections.abc.Generator,
        name: str = "",
        daemon: bool = False,
        expendable: bool = False,
    ) -> "Process":
        """Spawn a new process from a generator.

        ``daemon=True`` marks background periodic work that should not
        keep a bare :meth:`run` alive.  ``expendable=True`` marks a
        process that may legitimately never finish (e.g. a quarantine
        drain waiting on a response that was lost in the fabric) so the
        sanitizer's orphan detector does not report it.
        """
        from repro.sim.process import Process

        process = Process(
            self, generator, name=name, daemon=daemon, expendable=expendable
        )
        if self.sanitizer is not None:
            self.sanitizer.note_process(process)
        return process

    # -- queue internals -------------------------------------------------

    def _flush_due_bands(self) -> None:
        """Move every band that could hold the next event into the heap.

        Cancelled, still-untriggered entries (disarmed deadlines) are
        dropped here — they never reach the heap at all.
        """
        band_heap = self._band_heap
        queue = self._queue
        ready = self._ready
        band_ns = self._band_ns
        while band_heap:
            start = band_heap[0] * band_ns
            if ready and ready[0][0] < start:
                break
            if queue and queue[0][0] < start:
                break
            band = heapq.heappop(band_heap)
            self._band_floor = band
            for entry in self._bands.pop(band):
                event = entry[2]
                if event.cancelled and not event.triggered:
                    self._pending -= 1
                    self._cancelled_pending -= 1
                    self.events_dropped += 1
                    if not event._daemon:
                        self._nondaemon_pending -= 1
                    continue
                heapq.heappush(queue, entry)
        self._band_start = band_heap[0] * band_ns if band_heap else math.inf

    def _pop_next(self) -> tuple[float, int, Event] | None:
        """Remove and return the globally next entry, or None if empty.

        Cancelled, untriggered entries (lazily-deleted timeouts) are
        dropped — never dispatched — on the way.
        """
        queue = self._queue
        ready = self._ready
        inf = math.inf
        while True:
            if ready:
                # ready entries were appended at (then-) current time, so
                # the ready head is never later than the queue head; it is
                # the flush candidate.
                if self._band_start <= ready[0][0]:
                    self._flush_due_bands()
                head = ready[0]
                if queue and queue[0] < head:
                    entry = heapq.heappop(queue)
                else:
                    entry = ready.popleft()
            elif queue:
                if self._band_start <= queue[0][0]:
                    self._flush_due_bands()
                entry = heapq.heappop(queue)
            else:
                if self._band_start < inf:
                    # Only banded entries remain (e.g. far-future
                    # timeouts, or parked cancelled deadlines to drop).
                    self._flush_due_bands()
                    continue
                return None
            event = entry[2]
            if event.cancelled and not event.triggered:
                self._pending -= 1
                self._cancelled_pending -= 1
                self.events_dropped += 1
                if not event._daemon:
                    self._nondaemon_pending -= 1
                continue
            self._pending -= 1
            return entry

    def _unpop(self, entry: tuple[float, int, Event]) -> None:
        """Return a popped-but-undispatched entry to the queue."""
        heapq.heappush(self._queue, entry)
        self._pending += 1

    def _dispatch(self, entry: tuple[float, int, Event]) -> None:
        """Advance the clock to ``entry`` and run its event's callbacks."""
        event = entry[2]
        if self.sanitizer is not None:
            self.sanitizer.on_dispatch(entry[0], event)
        self.now = entry[0]
        if not event._daemon:
            self._nondaemon_pending -= 1
        if not event.triggered:
            # A Timeout reaching its deadline triggers lazily, here.
            event.triggered = True
            event._value = event._timeout_value
        self.events_dispatched += 1
        # Dispatched before the callbacks run, so a callback registered
        # *during* dispatch fires immediately instead of being lost.
        event._dispatched = True
        callbacks = event.callbacks
        if callbacks is not None:
            event.callbacks = None
            for callback in callbacks:
                callback(event)

    # -- execution -------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Run until the queue drains or simulated time passes ``until``.

        Returns the simulation time at which execution stopped.
        """
        if self._running:
            raise SimulationError("engine is already running")
        self._running = True
        pop_next = self._pop_next
        dispatch = self._dispatch
        self.run_deadline_ns = math.inf if until is None else until
        try:
            if until is None:
                while self._nondaemon_pending > 0:
                    entry = pop_next()
                    if entry is None:
                        break
                    dispatch(entry)
            else:
                while True:
                    entry = pop_next()
                    if entry is None:
                        break
                    if entry[0] > until:
                        self._unpop(entry)
                        break
                    dispatch(entry)
        finally:
            self._running = False
            self.run_deadline_ns = math.inf
        if until is not None and self.now < until:
            self.now = until
        if self.sanitizer is not None:
            # Leak checks fire on the normal-exit path only (a crashed
            # dispatch already has a better error in flight).
            self.sanitizer.check(drained=until is None)
        return self.now

    def run_until(self, event: Event) -> object:
        """Run until ``event`` triggers; returns its value (raises on fail).

        Raises :class:`SimulationError` if the queue drains first, or
        when called while the engine is dispatching: a nested run would
        advance the clock under a suspended process.
        """
        if self._running:
            raise SimulationError(
                "run_until() is top-level only: the engine is already "
                "dispatching; yield the event from a process instead"
            )
        self._running = True
        if self.sanitizer is not None and isinstance(event, Timeout):
            # The caller is this timeout's waiter: an opaque callback
            # keeps the timeout-leak detector from flagging it.
            event.add_callback(lambda _event: None)
        pop_next = self._pop_next
        dispatch = self._dispatch
        try:
            while not event.triggered:
                entry = pop_next()
                if entry is None:
                    raise SimulationError(f"queue drained before {event!r} triggered")
                dispatch(entry)
            # Drain same-timestamp callbacks so observers see a settled state.
            while True:
                entry = pop_next()
                if entry is None:
                    break
                if entry[0] != self.now:
                    self._unpop(entry)
                    break
                dispatch(entry)
        finally:
            self._running = False
        return event.value

    def drive(self, body: collections.abc.Generator) -> object:
        """Run a process body from top level; returns its return value.

        Each event ``body`` yields goes to :meth:`run_until`, and its
        value (or failure) goes back in.  Top-level only, like
        :meth:`run_until`: inside a process, ``yield from`` the body.
        """
        if self._running:
            raise SimulationError(
                f"{body.__qualname__} is top-level only: the engine is "
                "already dispatching; yield from the generator in a process"
            )
        value, failure = None, None
        while True:
            try:
                event = body.send(value) if failure is None else body.throw(failure)
            except StopIteration as stop:
                return stop.value
            try:
                value, failure = self.run_until(event), None
            except BaseException as exc:
                if exc is not event.exception:
                    body.close()
                    raise
                value, failure = None, exc

    def _pending_entries(self) -> "Iterator[tuple[float, int, Event]]":
        """Every queued entry across all tiers (diagnostic/sanitizer)."""
        yield from self._ready
        yield from self._queue
        for bucket in self._bands.values():
            yield from bucket

    @property
    def queue_length(self) -> int:
        """Number of pending scheduled entries (diagnostic)."""
        return self._pending

    def __repr__(self) -> str:
        return f"<Engine t={self.now:.1f}ns queue={self._pending}>"
