"""Counted resources (semaphores) for modelling cores, ports, and buses."""

from __future__ import annotations

import typing
from collections import deque

from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class Resource:
    """A resource with ``capacity`` interchangeable units.

    ``request()`` returns an event that succeeds when a unit is granted
    (already dispatched when a unit is free); the holder must call
    ``release()`` exactly once.  Grants are FIFO.

    Example::

        core = Resource(eng, capacity=12, name="cpu")

        def job(eng, core):
            grant = core.request()
            yield grant
            try:
                yield eng.timeout(100.0)
            finally:
                core.release()
    """

    def __init__(self, engine: "Engine", capacity: int, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: deque[Event] = deque()
        self._request_label = f"req:{name}"

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a unit."""
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that succeeds when one unit is granted."""
        event = Event(self.engine, self._request_label)
        if self.in_use < self.capacity:
            self.in_use += 1
            event._complete()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return one unit; hands it to the oldest live waiter if any."""
        if self.in_use <= 0:
            raise RuntimeError(f"release() without grant on {self.name!r}")
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.cancelled:
                waiter.succeed()
                return
        self.in_use -= 1

    def __repr__(self) -> str:
        return (
            f"<Resource {self.name} {self.in_use}/{self.capacity} "
            f"waiting={len(self._waiters)}>"
        )
