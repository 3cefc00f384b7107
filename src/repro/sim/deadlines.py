"""Deadlines that usually never fire, kept off the event queue.

A request's guard deadline is armed for tens of milliseconds and, on a
healthy path, disarmed microseconds later when the response arrives; a
contended slot-lease wait is bounded the same way.  A ``Timeout``
cannot be disarmed: each one would wait in the engine's heap until its
instant.  A :class:`DeadlineQueue` keeps deadlines in a heap of its own
and holds one engine timer at the head entry.  It is the kernel's one
structure for deadlines that their waiter may abandon.

The expiries are exact.  :meth:`DeadlineQueue.arm` reserves the
engine's next tie-break key, the one a ``Timeout`` armed at that moment
would have taken, and the timer is always scheduled under the key of
the deadline it sits on.  An expiry therefore dispatches at the same
time and in the same same-instant position as the ``Timeout`` it
replaces, and every other event keeps its key.  A timer that finds its
deadline disarmed moves to the next live one, again under that
deadline's own key: when requests resolve in time, that is at most one
dispatched event per timeout period.  Disarmed deadlines are dropped
from the heap in one pass once they outnumber the live ones, so its
memory follows the armed deadlines, not arm rate times timeout.

While any deadline is armed the timer keeps a bare ``Engine.run()``
alive, as an armed ``Timeout`` does; once none is, the timer is demoted
to daemon work, so a bare run ends where it would if each disarmed
deadline were a ``Timeout`` marked cancelled and daemon.
"""

from __future__ import annotations

import collections.abc
import heapq
import typing

from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

_SLACK = 64  # disarmed deadlines a queue may hold beyond its live ones


class DeadlineQueue:
    """The engine's deadlines (``engine.deadlines``), one timer for all.

    A deadline allocates no ``Timeout``, closure or callback list: it is
    one list ``[when, key, expire, arg, timer]`` in the heap, and
    ``expire(arg)`` runs when it fires.  ``expire`` is None once the
    deadline is disarmed or has fired; ``timer`` is the engine event
    scheduled under the deadline's key, if it ever was the head.  Keys
    are unique, so heap comparisons never look past the key.
    """

    __slots__ = ("engine", "_heap", "_live", "_timer")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self._heap: list[list] = []
        self._live = 0  # armed deadlines, neither disarmed nor fired
        self._timer: Event | None = None  # the head's timer, None when empty

    def arm(
        self, delay: float, expire: collections.abc.Callable[[object], None], arg: object
    ) -> list:
        """Call ``expire(arg)`` ``delay`` ns from now unless disarmed
        first; returns the handle :meth:`disarm` takes."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        engine = self.engine
        deadline = [engine.now + delay, engine._reserve_key(), expire, arg, None]
        heap = self._heap
        heapq.heappush(heap, deadline)
        self._live += 1
        timer = self._timer
        if timer is None:
            self._schedule_head()
        elif heap[0] is deadline:
            # Earlier than the head: it gets a timer of its own.  The old
            # one stays scheduled, demoted; it serves again if its
            # deadline is the head again, and fires for nothing if not.
            engine.mark_daemon(timer)
            self._schedule_head()
        elif self._live == 1:
            engine._unmark_daemon(timer)  # armed again after a demotion
        return deadline

    def disarm(self, deadline: list) -> None:
        """Drop ``deadline``; a no-op once it has fired or been dropped."""
        if deadline[2] is None:
            return
        deadline[2] = deadline[3] = None
        self._live -= 1
        if self._live == 0 and self._timer is not None:
            self.engine.mark_daemon(self._timer)
        if len(self._heap) > 2 * self._live + _SLACK:
            self._drop_disarmed()

    def _drop_disarmed(self) -> None:
        """Drop every disarmed deadline once they outnumber the live ones,
        keeping the head while its timer is scheduled on it: heap memory
        stays proportional to the armed deadlines, not to arm rate times
        timeout.  Keys are unique, so the order of expiries is the
        same."""
        heap = self._heap
        head = heap[0] if self._timer is not None else None
        heap[:] = [deadline for deadline in heap if deadline[2] is not None or deadline is head]
        heapq.heapify(heap)

    def _schedule_head(self) -> None:
        """Drop disarmed entries off the head, then make the head's timer
        the one that keeps a bare run alive, scheduling it under the
        head's key unless it already is."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
        if not heap:
            self._timer = None
            return
        head = heap[0]
        timer = head[4]
        if timer is None:
            timer = head[4] = Event(self.engine, "deadline")
            timer.callbacks = [self._fire]
            self.engine._schedule_at(head[0], timer, head[1])
        else:
            self.engine._unmark_daemon(timer)
        self._timer = timer

    def _fire(self, timer: Event) -> None:
        if timer is not self._timer:
            return  # displaced by an earlier deadline, and its own was dropped
        self._timer = None
        deadline = heapq.heappop(self._heap)
        expire = deadline[2]
        if expire is not None:
            arg = deadline[3]
            deadline[2] = deadline[3] = None
            self._live -= 1
            expire(arg)
        if self._timer is None:
            self._schedule_head()
