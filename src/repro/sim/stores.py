"""Stores and FIFOs for producer/consumer flows.

A :class:`Store` is an unbounded queue whose consumers are processes:
``get`` returns an event that a process yields, and ``try_put`` hands
an item to the first waiting getter or queues it.  A get with an item
waiting finishes when it is called: its event is already dispatched and
never queued, so the yielding process continues in the same resume.

A :class:`Fifo` is the bounded queue of a data path whose consumer is a
callback, not a process: it has no getters.  The consumer takes items
with ``try_get`` when it is told of a put.  A ``Fifo`` applies
backpressure: a ``put`` into a full FIFO blocks until ``try_get`` makes
room — this is how Xon/Xoff flow control is modelled.
"""

from __future__ import annotations

import heapq
import typing
from collections import deque

from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class StoreFull(Exception):
    """Raised by non-blocking ``try_put`` on a full FIFO."""


class Store:
    """An unbounded FIFO queue with waiting getters.

    Items are delivered to getters in arrival order; waiting getters are
    served in request order.  A getter whose waiter departed (its event
    is cancelled) is skipped.
    """

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.name = name
        self.items: deque = deque()
        self._getters: deque[Event] = deque()
        # The event label is precomputed: get runs once per item moved.
        self._get_label = f"get:{name}"

    def __len__(self) -> int:
        return len(self.items)

    def get(self) -> Event:
        """Return an event that succeeds with the next item."""
        event = Event(self.engine, self._get_label)
        if self.items:
            event._complete(self._take())
        else:
            self._getters.append(event)
        return event

    def try_put(self, item: object) -> None:
        """Hand ``item`` to the first live waiting getter, or queue it."""
        while self._getters:
            getter = self._getters.popleft()
            if not getter.cancelled:
                getter.succeed(item)
                return
        self._add(item)

    def _add(self, item: object) -> None:
        self.items.append(item)

    def _take(self) -> object:
        return self.items.popleft()

    def __repr__(self) -> str:
        return (
            f"<{self.__class__.__name__} {self.name} {len(self.items)} "
            f"getters={len(self._getters)}>"
        )


class Fifo:
    """A bounded FIFO with no getters, for queues that callbacks drain.

    A put with room appends the item and returns ``engine.finished``, the
    engine's one already-dispatched event, so it allocates nothing.  Only
    a put into a full FIFO allocates an event; the :meth:`try_get` that
    makes room appends its item and succeeds it, in putter order.  A
    putter whose waiter departed (its event is cancelled) is skipped and
    its item dropped.
    """

    __slots__ = ("engine", "capacity", "name", "items", "_putters", "_put_label")

    def __init__(self, engine: "Engine", capacity: int, name: str = ""):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self.items: deque = deque()
        # Waiting putters exist only while the FIFO is full.
        self._putters: deque[tuple[Event, object]] = deque()
        self._put_label = f"put:{name}"

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return len(self.items) >= self.capacity

    def put(self, item: object) -> Event:
        """Enqueue ``item``; the returned event succeeds once it is in."""
        if len(self.items) < self.capacity:
            self.items.append(item)
            return self.engine.finished
        event = Event(self.engine, self._put_label)
        self._putters.append((event, item))
        return event

    def try_put(self, item: object) -> None:
        """Enqueue immediately or raise :class:`StoreFull`."""
        if len(self.items) >= self.capacity:
            raise StoreFull(self.name)
        self.items.append(item)

    def try_get(self) -> object | None:
        """Dequeue immediately, or return None if empty."""
        items = self.items
        if not items:
            return None
        item = items.popleft()
        putters = self._putters
        while putters:
            event, waiting = putters.popleft()
            if event.cancelled:
                continue  # putter departed; drop its item
            items.append(waiting)
            event.succeed()
            break
        return item

    def __repr__(self) -> str:
        return f"<Fifo {self.name} {len(self.items)}/{self.capacity}>"


class PriorityStore(Store):
    """A store that delivers the smallest item first.

    Items must be orderable; use ``(priority, seq, payload)`` tuples to
    guarantee a total order.
    """

    def __init__(self, engine: "Engine"):
        super().__init__(engine)
        self.items: list = []

    def _add(self, item: object) -> None:
        heapq.heappush(self.items, item)

    def _take(self) -> object:
        return heapq.heappop(self.items)
