"""Coroutine processes.

A process wraps a generator that yields :class:`~repro.sim.events.Event`
objects.  The process is itself an event, so processes can wait for each
other by yielding them (a *join*).  A process that ends with nobody
joining it finishes without a queue entry; a later join sees the value
at once.
"""

from __future__ import annotations

import collections.abc
import typing

from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class ProcessKilled(Exception):
    """Raised inside a process that has been forcibly killed."""


class Process(Event):
    """A running simulation coroutine.

    The generator may ``return`` a value, which becomes the process's
    event value, observable by any process that yields (joins) it.
    """

    __slots__ = ("generator", "daemon", "expendable", "_waiting_on")

    def __init__(
        self,
        engine: "Engine",
        generator: collections.abc.Generator,
        name: str = "",
        daemon: bool = False,
        expendable: bool = False,
    ):
        if not hasattr(generator, "send"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        super().__init__(engine, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self.daemon = daemon
        # May legitimately never finish (see Engine.process); consulted
        # only by the sanitizer's orphan detector.
        self.expendable = expendable
        self._waiting_on: Event | None = None
        # Kick-start on the next engine dispatch at the current time.
        start = Event(engine, name="start")
        start.callbacks = [self._resume]
        start.succeed()
        if daemon:
            engine.mark_daemon(start)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    # -- stepping --------------------------------------------------------

    def _resume(self, event: Event) -> None:
        if self.triggered:
            return  # process already finished; stale wakeup
        self._waiting_on = None
        generator = self.generator
        # An already-dispatched event (a put with room, a get with an
        # item waiting, a finished join) needs no wakeup: keep sending
        # in this resume, in a loop rather than by recursion.
        while True:
            try:
                exception = event._exception
                if exception is None:
                    event = generator.send(event._value)
                else:
                    event = generator.throw(exception)
            except StopIteration as stop:
                if not self.callbacks:
                    self._complete(stop.value)  # nobody joins: no queue entry
                else:
                    self.succeed(stop.value)
                return
            except BaseException as exc:
                if not self.callbacks and not isinstance(exc, ProcessKilled):
                    # Nobody is joining this process: surface the crash
                    # loudly rather than failing an event no-one observes.
                    raise
                self.fail(exc)
                return
            if not isinstance(event, Event):
                generator.close()
                raise TypeError(f"process {self.name!r} yielded non-event {event!r}")
            if not event._dispatched:
                break
        if self.daemon and not event.triggered:
            self.engine.mark_daemon(event)
        self._waiting_on = event
        event.add_callback(self._resume)

    # -- control ---------------------------------------------------------

    def kill(self) -> None:
        """Terminate the process unconditionally.

        The process leaves the event it waits on (:meth:`Event.abandon`):
        with no other waiter left, the event is cancelled, so no store or
        resource hands it work, and a queued timeout no longer holds a
        bare ``run()`` open until its instant.
        """
        if self.triggered:
            return
        if self._waiting_on is not None:
            self._waiting_on.abandon(self._resume)
        self._waiting_on = None
        self.generator.close()
        self.fail(ProcessKilled(self.name))

    def __repr__(self) -> str:
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name} {state}>"
