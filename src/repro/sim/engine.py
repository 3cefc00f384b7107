"""The simulation engine: a causally ordered event loop.

Time is a float in nanoseconds.  Determinism is guaranteed by a
monotonic tie-break sequence number on every scheduled entry, so two
runs with the same seed produce identical traces.

Operations that finish when they are called — a ``Fifo`` put with
room, a ``Store`` get with an item waiting, a free ``Resource`` unit,
the end of a process that nobody joins — never enter the queue: their
event comes back already dispatched (for a ``Fifo`` put, the engine's
one shared ``finished`` event), and a process that yields it continues
in the same resume.  Everything else queues, in two tiers that
dispatch in strict global ``(time, seq)`` order:

* a FIFO **ready deque** for events triggered by ``succeed()`` /
  ``fail()``, dispatching at the current instant after everything
  already pending there — O(1) instead of a heap push;
* a binary **heap** for everything due later: timeouts and the
  deadline timer.

A timeout whose waiter departed (``Event.cancelled``, set by
``Process.kill`` and ``RolePort.close``) is daemon work from then on
and is dropped when it reaches the head, never dispatched.

Deadlines that usually never fire — a request's guard or a bounded
lease wait, armed for milliseconds and disarmed microseconds later — do
not enter the queue at all: they wait in ``engine.deadlines``, a
:class:`~repro.sim.deadlines.DeadlineQueue`, which keeps one timer in
the queue and dispatches each expiry under the key a ``Timeout`` would
have had.  It is the kernel's one structure for a deadline its waiter
may abandon: a ``Timeout`` cannot be disarmed.
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
    without dispatch, and :attr:`peak_queue_length` tracks the
    high-water mark of pending entries across both tiers.
    """

    def __init__(
        self,
        seed: int = 0,
        sanitize: bool | None = None,
        tie_break_salt: int = 0,
        fluid: bool = False,
    ):
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
        # route every entry through the heap (the ready deque assumes
        # monotonic keys).
        self._tie_salt = tie_break_salt
        self._queue: list[tuple[float, int, Event]] = []  # due later: a heap
        self._ready: deque[tuple[float, int, Event]] = deque()  # triggered, due now
        self._seq = 0
        self._running = False
        self._nondaemon_pending = 0
        self._pending = 0  # entries across both tiers
        self.events_dispatched = 0
        self.events_dropped = 0
        self.peak_queue_length = 0
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

    def _pop_next(self) -> tuple[float, int, Event] | None:
        """Remove and return the globally next entry, or None if empty.

        Cancelled, untriggered entries (abandoned by their waiter) are
        dropped — never dispatched — on the way.
        """
        queue = self._queue
        ready = self._ready
        while True:
            if ready:
                # Ready entries were appended at the (then-) current
                # time, so the ready head is never later than the heap
                # head; only a key decides between them.
                if queue and queue[0] < ready[0]:
                    entry = heapq.heappop(queue)
                else:
                    entry = ready.popleft()
            elif queue:
                entry = heapq.heappop(queue)
            else:
                return None
            event = entry[2]
            self._pending -= 1
            if event.cancelled and not event.triggered:
                self.events_dropped += 1
                if not event._daemon:
                    self._nondaemon_pending -= 1
                continue
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
        """Every queued entry across both tiers (diagnostic/sanitizer)."""
        yield from self._ready
        yield from self._queue

    @property
    def queue_length(self) -> int:
        """Number of pending scheduled entries (diagnostic)."""
        return self._pending

    def __repr__(self) -> str:
        return f"<Engine t={self.now:.1f}ns queue={self._pending}>"
