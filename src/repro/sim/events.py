"""Waitable events for the simulation kernel.

An :class:`Event` is a one-shot occurrence.  Processes wait on events by
``yield``-ing them; the engine resumes the process when the event
triggers.  Events may succeed with a value or fail with an exception
(which is re-raised inside every waiting process).

This module is the per-event hot path of every experiment: a
million-arrival open-loop run allocates tens of millions of events, so
the classes are ``__slots__``-only (no per-instance dict), state flags
are plain attributes instead of computed properties, and the callback
list is allocated lazily (most events never get more than one waiter).
"""

from __future__ import annotations

import collections.abc
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

# Sentinel distinguishing "not yet triggered" from "triggered with None".
_PENDING = object()


class Event:
    """A one-shot waitable occurrence.

    Callbacks are invoked by the engine in trigger order at the trigger
    timestamp.  An event can only be triggered once; triggering twice is
    a programming error and raises ``RuntimeError``.
    """

    __slots__ = (
        "engine",
        "name",
        "callbacks",
        "cancelled",
        "triggered",
        "_value",
        "_exception",
        "_dispatched",
        "_daemon",
        "_scheduled",
    )

    # Class-level fallback: only Timeout carries a real deadline value.
    # The engine reads this on lazily-triggered entries without a
    # ``getattr`` probe (a plain Event scheduled untriggered resolves to
    # the class attribute, None).
    _timeout_value = None

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.name = name
        self.callbacks: list | None = None  # allocated on first waiter
        self.cancelled = False  # abandoned by its waiter (kill/close/expiry)
        self.triggered = False  # set by succeed()/fail()/lazy deadline
        self._value: object = _PENDING
        self._exception: BaseException | None = None
        self._dispatched = False
        self._daemon = False
        self._scheduled = False

    # -- state ---------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True if the event succeeded (triggered without exception)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> object:
        """The success value; raises if pending or failed."""
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise RuntimeError(f"event {self!r} has not been triggered")
        return self._value

    @property
    def exception(self) -> BaseException | None:
        return self._exception

    # -- triggering ----------------------------------------------------

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully, delivering ``value``."""
        if self.triggered:
            raise RuntimeError(f"event {self!r} already triggered")
        self.triggered = True
        self._value = value
        self.engine._schedule_trigger(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self.triggered:
            raise RuntimeError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self.triggered = True
        self._exception = exception
        self._value = None
        self.engine._schedule_trigger(self)
        return self

    def _complete(self, value: object = None) -> "Event":
        """Finish at once: triggered *and* dispatched, with no queue entry.

        For an operation that is done the moment it is called: a process
        that yields the event continues in the same resume, and a
        callback added later fires at once.  Not counted in
        ``events_dispatched``.
        """
        self.triggered = True
        self._value = value
        self._dispatched = True
        return self

    # -- engine plumbing -------------------------------------------------

    def abandon(self, callback: collections.abc.Callable[["Event"], None]) -> None:
        """Withdraw a departing waiter's ``callback`` (its process was
        killed, its role port closed).

        Once no other waiter remains, the pending event is cancelled, so
        no store or resource hands it work, and a queued one is demoted
        to daemon work, so it no longer holds a bare ``run()`` open.  An
        event another process or port still waits on stays live; a plain
        callback some other party added does not keep it.
        """
        if self.triggered:
            return
        callbacks = self.callbacks or ()
        if callback in callbacks:
            callbacks.remove(callback)
        for other in callbacks:
            # A waiter (a process, a role port) is the owner of a bound
            # callback that records this event as the one it waits on.
            if getattr(getattr(other, "__self__", None), "_waiting_on", None) is self:
                return
        self.cancelled = True
        if self._scheduled:
            self.engine.mark_daemon(self)

    def add_callback(self, callback: collections.abc.Callable[["Event"], None]) -> None:
        """Register ``callback``; fired immediately if already dispatched."""
        if self._dispatched:
            callback(self)
        elif self.callbacks is None:
            self.callbacks = [callback]
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = "ok" if self.ok else ("failed" if self.triggered else "pending")
        label = self.name or self.__class__.__name__
        return f"<{label} {state}>"


class Timeout(Event):
    """An event that succeeds after a fixed simulated delay.

    Timeouts trigger *lazily*: the entry sits untriggered in the engine's
    heap and receives its value only when the deadline pops.  A timeout
    cannot be disarmed; one whose last waiter departed (``Process.kill``,
    ``RolePort.close``; see :meth:`Event.abandon`) is cancelled and
    demoted to daemon work, so it no longer holds a bare ``run()`` open,
    and is dropped at the head without dispatching.  A deadline the
    waiter itself may abandon belongs in ``engine.deadlines``.
    """

    __slots__ = ("delay", "_timeout_value")

    def __init__(self, engine: "Engine", delay: float, value: object = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(engine)
        self.delay = delay
        self._timeout_value = value
        engine._schedule_at(engine.now + delay, self)

    def __repr__(self) -> str:
        state = "ok" if self.ok else ("failed" if self.triggered else "pending")
        if self.cancelled and not self.triggered:
            state = "cancelled"
        return f"<Timeout({self.delay}) {state}>"


class AllOf(Event):
    """Succeeds (with None) when every child event has succeeded; fails
    with the first child that fails."""

    __slots__ = ("_waiting",)

    def __init__(self, engine: "Engine", events: collections.abc.Sequence[Event]):
        super().__init__(engine, name="AllOf")
        # Count the children still to succeed instead of rescanning the
        # whole list on every child trigger: a condition over N events is
        # O(N) total, not O(N^2).
        self._waiting = len(events)
        if not events:
            self.succeed()
            return
        for event in events:
            if event.triggered:
                self._on_child(event)
                if self.triggered:
                    return
            else:
                event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.exception)  # type: ignore[arg-type]
            return
        self._waiting -= 1
        if not self._waiting:
            self.succeed()
