"""The Flight Data Recorder (§3.6).

A lightweight "always-on" recorder that captures the most recent head
and tail flits of all packets entering and exiting the FPGA through the
router, into a 512-entry circular buffer that can be streamed out over
PCIe during a health check.  Each entry keeps the trace ID (so the
offending document can be replayed in a test environment), transaction
size, direction of travel, and miscellaneous state such as non-zero
queue lengths.
"""

from __future__ import annotations

import typing
from collections import deque

from repro.hardware.constants import FDR_CAPACITY


class FdrEntry(typing.NamedTuple):
    """One recorded router event, as the health check streams it out."""

    timestamp_ns: float
    trace_id: int
    size_bytes: int
    direction: str  # e.g. "north->role", "role->south", "pcie->role"
    kind: str
    queue_lengths: tuple  # (port_name, depth) pairs, non-zero only


def _entry(hop: tuple) -> FdrEntry:
    """The ``FdrEntry`` for one recorded hop (see ``record``)."""
    timestamp_ns, trace_id, size_bytes, in_port, out_port, kind, lengths = hop
    return FdrEntry(
        timestamp_ns,
        trace_id,
        size_bytes,
        f"{in_port.value}->{out_port.value}",
        kind.value,
        lengths,
    )


class FlightDataRecorder:
    """Fixed-capacity circular event buffer with power-on checkpoints."""

    def __init__(self):
        self._events: deque[tuple] = deque(maxlen=FDR_CAPACITY)
        self.power_on_checks: dict[str, bool] = {}
        self.total_recorded = 0

    def record(self, hop: tuple) -> None:
        """Append an event, evicting the oldest when full.

        ``hop`` is the raw tuple the router appends on every hop:
        ``(timestamp_ns, trace_id, size_bytes, in_port, out_port, kind,
        queue_lengths)``, with the ports and the packet kind as enums.
        Hops become ``FdrEntry`` objects only when they are read.
        """
        self.total_recorded += 1
        self._events.append(hop)  # a full deque drops its oldest

    def record_power_on(self, check: str, ok: bool) -> None:
        """Record a power-on sequence check (SL3 lock, PLL, resets...)."""
        self.power_on_checks[check] = ok

    def stream_out(self) -> list[FdrEntry]:
        """Dump the on-chip buffer (what the health check reads)."""
        return [_entry(hop) for hop in self._events]

    def entries_for_trace(self, trace_id: int) -> list[FdrEntry]:
        """All retained events for one trace ID (deadlock debugging)."""
        return [_entry(hop) for hop in self._events if hop[1] == trace_id]

    @property
    def dropped(self) -> int:
        """Events evicted from the on-chip buffer."""
        return self.total_recorded - len(self._events)

    def __len__(self) -> int:
        return len(self._events)
