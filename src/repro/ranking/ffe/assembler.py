"""The FFE assembler: static-priority thread assignment (§4.5).

Rather than fair scheduling, threads are statically prioritized.  The
assembler maps the expressions with the longest expected latency to
Thread Slot 0 on all cores, then fills Slot 1 on all cores, and so
forth; once every core has one thread per slot, remaining expressions
are appended to the end of previously-mapped threads, starting again
at Thread Slot 0.
"""

from __future__ import annotations

import dataclasses

from repro.hardware.constants import (
    FFE_CORE_COUNT,
    FFE_CORES_PER_CLUSTER,
    FFE_THREADS_PER_CORE,
)


@dataclasses.dataclass
class ThreadAssignment:
    """The ordered expression list one hardware thread executes."""

    core: int
    slot: int
    expressions: list = dataclasses.field(default_factory=list)

    @property
    def expected_latency(self) -> int:
        return sum(expr.expected_latency for expr in self.expressions)


@dataclasses.dataclass
class FfeProgram:
    """A full processor load: every thread's work for one model."""

    threads: list  # ThreadAssignment, indexed core-major
    core_count: int
    threads_per_core: int

    def thread(self, core: int, slot: int) -> ThreadAssignment:
        return self.threads[core * self.threads_per_core + slot]

    @property
    def instruction_count(self) -> int:
        return sum(
            expr.instruction_count
            for thread in self.threads
            for expr in thread.expressions
        )

    def output_slots(self) -> set:
        return {
            expr.output_slot
            for thread in self.threads
            for expr in thread.expressions
        }


def assemble(
    expressions: list,
    core_count: int = FFE_CORE_COUNT,
    threads_per_core: int = FFE_THREADS_PER_CORE,
) -> FfeProgram:
    """Assign compiled expressions to thread slots, longest first."""
    if core_count < 1 or threads_per_core < 1:
        raise ValueError("need at least one core and one thread slot")
    threads = [
        ThreadAssignment(core=core, slot=slot)
        for core in range(core_count)
        for slot in range(threads_per_core)
    ]

    def thread_at(core: int, slot: int) -> ThreadAssignment:
        return threads[core * threads_per_core + slot]

    ordered = sorted(expressions, key=lambda e: e.expected_latency, reverse=True)
    # First pass: slot 0 on all cores, then slot 1 on all cores, ...
    position = 0
    for slot in range(threads_per_core):
        for core in range(core_count):
            if position >= len(ordered):
                break
            thread_at(core, slot).expressions.append(ordered[position])
            position += 1
    # Remainder: appended to existing threads, starting again at slot 0.
    slot, core = 0, 0
    while position < len(ordered):
        thread_at(core, slot).expressions.append(ordered[position])
        position += 1
        core += 1
        if core == core_count:
            core = 0
            slot = (slot + 1) % threads_per_core
    return FfeProgram(
        threads=threads, core_count=core_count, threads_per_core=threads_per_core
    )


def cluster_of(core: int) -> int:
    """Which 6-core cluster (sharing one complex block) a core is in."""
    return core // FFE_CORES_PER_CLUSTER
