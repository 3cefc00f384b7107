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
    """Fixed-capacity circular event buffer with power-on checkpoints.

    The paper's future-work extension is supported: with
    ``spill_to_dram=True``, entries evicted from the on-chip circular
    buffer are "opportunistically buffered into DRAM for extended
    histories" (§3.6), up to a DRAM budget.
    """

    def __init__(
        self,
        capacity: int = FDR_CAPACITY,
        spill_to_dram: bool = False,
        dram_budget_entries: int = 65_536,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.spill_to_dram = spill_to_dram
        self.dram_budget_entries = dram_budget_entries
        self._events: deque[tuple] = deque(maxlen=capacity)
        self._spilled: deque[tuple] = deque()
        self.power_on_checks: dict[str, bool] = {}
        self.total_recorded = 0

    def record(self, hop: tuple) -> None:
        """Append an event, evicting (or spilling) the oldest when full.

        ``hop`` is the raw tuple the router appends on every hop:
        ``(timestamp_ns, trace_id, size_bytes, in_port, out_port, kind,
        queue_lengths)``, with the ports and the packet kind as enums.
        Hops become ``FdrEntry`` objects only when they are read.
        """
        self.total_recorded += 1
        events = self._events
        if self.spill_to_dram and len(events) == self.capacity:
            self._spilled.append(events[0])
            if len(self._spilled) > self.dram_budget_entries:
                self._spilled.popleft()
        events.append(hop)  # a full deque drops its oldest

    def record_power_on(self, check: str, ok: bool) -> None:
        """Record a power-on sequence check (SL3 lock, PLL, resets...)."""
        self.power_on_checks[check] = ok

    def stream_out(self) -> list[FdrEntry]:
        """Dump the on-chip buffer (what the health check reads)."""
        return [_entry(hop) for hop in self._events]

    def extended_history(self) -> list[FdrEntry]:
        """DRAM-spilled entries plus the on-chip window, oldest first."""
        return [_entry(hop) for hop in (*self._spilled, *self._events)]

    def entries_for_trace(self, trace_id: int) -> list[FdrEntry]:
        """All retained events for one trace ID (deadlock debugging)."""
        return [
            _entry(hop)
            for hop in (*self._spilled, *self._events)
            if hop[1] == trace_id
        ]

    @property
    def dropped(self) -> int:
        """Events lost entirely (not retained on-chip or in DRAM)."""
        retained = len(self._events) + len(self._spilled)
        return max(0, self.total_recorded - retained)

    def __len__(self) -> int:
        return len(self._events)
