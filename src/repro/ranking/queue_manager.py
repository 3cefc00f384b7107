"""The Queue Manager (§4.3).

Requests arriving at the pipeline head are placed in a DRAM queue per
model.  The QM drains one queue at a time; when the current queue is
empty — or a switch timeout expires while other models wait — it moves
to the next non-empty queue and sends a **Model Reload** command down
the pipeline first.  Reload costs up to 250 µs, an order of magnitude
more than a document, so batching queries by model is crucial.

Two policies are provided for the ablation benchmark:

* ``batch`` — the paper's design: drain per-model queues;
* ``fifo``  — strawman: strict arrival order, reloading on every
  model change.
"""

from __future__ import annotations

import collections.abc
from collections import deque

from repro.sim import Engine, Event
from repro.sim.units import US


class QueueManager:
    """Per-model queueing and dispatch at the pipeline head."""

    def __init__(
        self,
        engine: Engine,
        dispatch: collections.abc.Callable,  # generator: yield-from'able per packet
        reload_model: collections.abc.Callable,  # generator: model switch actions
        policy: str = "batch",
        switch_timeout_ns: float = 500 * US,
        max_batch: int = 512,
    ):
        if policy not in ("batch", "fifo"):
            raise ValueError(f"unknown queue-manager policy {policy!r}")
        self.engine = engine
        self.dispatch = dispatch
        self.reload_model = reload_model
        self.policy = policy
        self.switch_timeout_ns = switch_timeout_ns
        self.max_batch = max_batch
        self.queues: dict[int, deque] = {}
        self.fifo: deque = deque()
        self.current_model: int | None = None
        self.reload_count = 0
        self.dispatched = 0
        self.enqueued = 0
        self.reloads_by_model: dict[int, int] = {}
        self.dispatched_by_model: dict[int, int] = {}
        self._arrival: Event | None = None
        self._batch_started_ns = 0.0
        # Expendable: the dispatch loop sleeps until the next arrival.
        self.process = engine.process(
            self._run(), name="queue-manager", expendable=True
        )

    # -- producer side ----------------------------------------------------------

    def enqueue(self, model_id: int, packet) -> None:
        """Called by the FE role's handler for each request."""
        self.enqueued += 1
        if self.policy == "fifo":
            self.fifo.append((model_id, packet))
        else:
            self.queues.setdefault(model_id, deque()).append(packet)
        if self._arrival is not None and not self._arrival.triggered:
            self._arrival.succeed()

    @property
    def backlog(self) -> int:
        if self.policy == "fifo":
            return len(self.fifo)
        return sum(len(q) for q in self.queues.values())

    # -- dispatch loop -------------------------------------------------------------

    def _run(self) -> collections.abc.Generator:
        while True:
            item = self._next_item()
            if item is None:
                self._arrival = self.engine.event(name="qm-arrival")
                yield self._arrival
                continue
            model_id, packet = item
            if model_id != self.current_model:
                self.reload_count += 1
                self.reloads_by_model[model_id] = (
                    self.reloads_by_model.get(model_id, 0) + 1
                )
                yield from self.reload_model(model_id)
                self.current_model = model_id
            yield from self.dispatch(packet)
            self.dispatched += 1
            self.dispatched_by_model[model_id] = (
                self.dispatched_by_model.get(model_id, 0) + 1
            )

    def stats(self) -> dict:
        """Counter snapshot: totals plus the per-model breakdown.

        ``per_model`` maps model id to its reload and dispatch counts —
        the ratio between the two is the effective batch size the QM
        achieved for that model, the quantity §4.3's batching exists to
        maximise.
        """
        per_model = {
            model_id: {
                "reloads": self.reloads_by_model.get(model_id, 0),
                "dispatched": self.dispatched_by_model.get(model_id, 0),
            }
            for model_id in sorted(
                set(self.reloads_by_model) | set(self.dispatched_by_model)
            )
        }
        return {
            "policy": self.policy,
            "enqueued": self.enqueued,
            "dispatched": self.dispatched,
            "reloads": self.reload_count,
            "backlog": self.backlog,
            "per_model": per_model,
        }

    def _next_item(self):
        if self.policy == "fifo":
            return self.fifo.popleft() if self.fifo else None
        # Batch policy: stay on the current model while it has work and
        # its batch/timeout budget lasts; else rotate to the next
        # non-empty queue (round-robin by model id).
        current = self.current_model
        others_waiting = any(
            queue and model_id != current for model_id, queue in self.queues.items()
        )
        timed_out = (
            others_waiting
            and self.engine.now - self._batch_started_ns >= self.switch_timeout_ns
        )
        if current is not None and not timed_out:
            queue = self.queues.get(current)
            if queue and self._batch_remaining > 0:
                self._batch_remaining -= 1
                return current, queue.popleft()
        candidates = sorted(
            model_id for model_id, queue in self.queues.items() if queue
        )
        if not candidates:
            return None
        if current in candidates:
            index = (candidates.index(current) + 1) % len(candidates)
            next_model = candidates[index] if len(candidates) > 1 else current
        else:
            later = [m for m in candidates if current is None or m > current]
            next_model = later[0] if later else candidates[0]
        self._batch_remaining = self.max_batch - 1
        self._batch_started_ns = self.engine.now
        return next_model, self.queues[next_model].popleft()

    _batch_remaining = 0
