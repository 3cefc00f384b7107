"""Discrete-event simulation kernel.

A small, deterministic, coroutine-based simulation engine in the style
of SimPy, purpose-built for the Catapult reproduction.  Components are
Python generators that ``yield`` waitable events; the :class:`Engine`
advances virtual time (float nanoseconds) in causal order.

The kernel is intentionally self-contained so every hardware and
software model in the repository shares one notion of time, ordering,
and randomness.
"""

from repro.sim.deadlines import DeadlineQueue
from repro.sim.engine import Engine, SimulationError
from repro.sim.events import AllOf, Event, Timeout
from repro.sim.fluid import (
    FluidCoordinator,
    FluidModel,
    FluidProfile,
    FluidWindow,
    PeriodicTransient,
    ScheduledTransients,
    TransientSource,
)
from repro.sim.process import Process, ProcessKilled
from repro.sim.rng import RngStreams
from repro.sim.sanitizer import (
    DualRunReport,
    SanitizerError,
    SanitizerFinding,
    SimSanitizer,
    dual_run,
    state_digest,
)
from repro.sim.stores import Fifo, PriorityStore, Store, StoreFull
from repro.sim.resources import Resource
from repro.sim.units import MS, NS, SEC, US, cycles_to_ns

__all__ = [
    "AllOf",
    "DeadlineQueue",
    "DualRunReport",
    "Engine",
    "Event",
    "Fifo",
    "FluidCoordinator",
    "FluidModel",
    "FluidProfile",
    "FluidWindow",
    "MS",
    "NS",
    "PeriodicTransient",
    "PriorityStore",
    "Process",
    "ProcessKilled",
    "Resource",
    "RngStreams",
    "SEC",
    "SanitizerError",
    "SanitizerFinding",
    "ScheduledTransients",
    "SimSanitizer",
    "SimulationError",
    "Store",
    "StoreFull",
    "Timeout",
    "TransientSource",
    "US",
    "cycles_to_ns",
    "dual_run",
    "state_digest",
]
