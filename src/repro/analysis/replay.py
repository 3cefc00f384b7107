"""FDR trace replay: reconstruct a packet's path across the fabric.

The Flight Data Recorder keeps "a trace ID that corresponds to a
specific compressed document that can be replayed in a test
environment" (§3.6).  This module is the replay side: given a pod and
a trace ID, it collects every FDR sighting across all routers and
orders them into the packet's journey — the workflow the authors used
to diagnose deadlocks and stage hangs at scale.
"""

from __future__ import annotations

import dataclasses
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.fabric.pod import Pod


@dataclasses.dataclass(frozen=True)
class PathStep:
    """One router sighting of the traced packet."""

    timestamp_ns: float
    machine_id: str
    node_id: tuple
    direction: str
    kind: str
    size_bytes: int
    queue_lengths: tuple


@dataclasses.dataclass
class TraceReplay:
    """The assembled journey of one trace ID."""

    trace_id: int
    steps: list

    @property
    def hop_count(self) -> int:
        return len(self.steps)

    @property
    def total_latency_ns(self) -> float:
        if len(self.steps) < 2:
            return 0.0
        return self.steps[-1].timestamp_ns - self.steps[0].timestamp_ns

    STALL_NS = 50_000.0

    def stalls(self) -> list:
        """Gaps longer than ``STALL_NS`` between consecutive sightings —
        where a deadlocked or hung stage shows up."""
        slow = []
        for before, after in zip(self.steps, self.steps[1:], strict=False):
            gap = after.timestamp_ns - before.timestamp_ns
            if gap > self.STALL_NS:
                slow.append((before, after, gap))
        return slow

    def format(self) -> str:
        lines = [f"trace {self.trace_id}: {self.hop_count} sightings, "
                 f"{self.total_latency_ns / 1000.0:.1f} us end to end"]
        for step in self.steps:
            queues = (
                " queues=" + ",".join(f"{p}:{d}" for p, d in step.queue_lengths)
                if step.queue_lengths
                else ""
            )
            lines.append(
                f"  t={step.timestamp_ns / 1000.0:10.1f}us  "
                f"{step.machine_id:<12} {step.direction:<16} "
                f"{step.kind:<12} {step.size_bytes:>7}B{queues}"
            )
        return "\n".join(lines)


def replay_trace(pod: "Pod", trace_id: int) -> TraceReplay:
    """Collect and order every FDR sighting of ``trace_id`` in a pod."""
    steps = []
    for node, server in pod.servers.items():
        for entry in server.shell.fdr.entries_for_trace(trace_id):
            steps.append(
                PathStep(
                    timestamp_ns=entry.timestamp_ns,
                    machine_id=server.machine_id,
                    node_id=node,
                    direction=entry.direction,
                    kind=entry.kind,
                    size_bytes=entry.size_bytes,
                    queue_lengths=entry.queue_lengths,
                )
            )
    steps.sort(key=lambda step: step.timestamp_ns)
    return TraceReplay(trace_id=trace_id, steps=steps)
