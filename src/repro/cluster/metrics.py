"""Exported observability: periodic cluster snapshots as JSON series.

The cluster's state used to be inspectable only through in-process
objects — a benchmark that wanted a capacity-over-time figure kept its
own ad-hoc sample list, and nothing outside the Python process could
read health back out.  :class:`MetricsRegistry` is the export path: it
snapshots every managed service (QPS, latency summary, dispatch and
admission counters, per-ring skew, replica counts) together with the
datacenter :class:`~repro.cluster.scheduler.CapacityReport` (per-pod
breakdown, open repair tickets, bitstream-cache counters), on a
simulated-time period, into an append-only JSON-lines file that
benchmarks and dashboards consume.

Every snapshot is one JSON object per line, serialized canonically
(sorted keys, compact separators), so a same-seed simulation produces a
*byte-identical* series file — the export is as deterministic as the
simulation itself.

Snapshot schema (one line)::

    {
      "t_ns": <simulated time>,
      "services": {
        "<name>": {
          ... ServiceStatus.to_dict() sans the shared capacity block ...,
          "workload": {"offered": n, "admitted": n, "rejected": n,
                        "completed": n, "timeouts": n}   # when attached
        }
      },
      "capacity": { ... CapacityReport.to_dict() ... }
    }
"""

from __future__ import annotations

import collections.abc
import json
import pathlib
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.manager import ClusterManager
    from repro.workloads.openloop import OpenLoopStats


class MetricsRegistry:
    """Samples a :class:`ClusterManager` into an exported time series.

    With ``path`` set, the file is created (truncated) at construction
    and each sample appends one canonical JSON line; ``snapshots``
    additionally keeps every sample in memory for in-process consumers.
    ``start(period_ns)`` runs the sampler as a simulated-time daemon;
    :meth:`sample` takes one snapshot on demand (both compose).

    Admission-side counters live in the workload, not the service —
    :meth:`attach_workload` links an open-loop injector's stats to a
    service name so offered/admitted/rejected/shed figures export next
    to the service's own dispatch counters.
    """

    def __init__(self, manager: "ClusterManager", path=None):
        self.manager = manager
        self.engine = manager.engine
        self.path = pathlib.Path(path) if path is not None else None
        # simlint: allow-unbounded-accum -- bounded by the sampling
        # period over the run horizon, one snapshot per tick.
        self.snapshots: list[dict] = []
        self._workloads: dict[str, OpenLoopStats] = {}
        self._sampler = None
        self._tick_source = None  # fluid window bound while sampling
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text("")  # fresh series; samples append

    # -- wiring ----------------------------------------------------------------

    def attach_workload(self, service: str, workload) -> None:
        """Export ``workload``'s admission counters under ``service``.

        ``workload`` is an :class:`~repro.workloads.openloop
        .OpenLoopInjector` (or anything with a compatible ``stats``
        attribute).
        """
        self._workloads[service] = workload.stats

    # -- sampling --------------------------------------------------------------

    def sample(self) -> dict:
        """Take one snapshot now; returns it (already recorded/appended)."""
        services: dict[str, dict] = {}
        statuses = self.manager.status()
        for name, status in statuses.items():
            # The capacity report is datacenter-wide; keep the single
            # copy at the top level instead of one per service.
            document = status._document()
            stats = self._workloads.get(name)
            if stats is not None:
                document["workload"] = stats.to_dict()
            services[name] = document
        # Every status shares one report; build one only when no
        # service is managed.
        capacity = (
            next(iter(statuses.values())).capacity
            if statuses
            else self.manager.scheduler.capacity_report()
        )
        snapshot = {
            "t_ns": self.engine.now,
            "services": services,
            "capacity": capacity.to_dict(),
        }
        self.snapshots.append(snapshot)
        if self.path is not None:
            with self.path.open("a") as series:
                series.write(dumps_canonical(snapshot) + "\n")
        return snapshot

    def start(self, period_ns: float) -> None:
        """Sample every ``period_ns`` of simulated time until stopped."""
        if period_ns <= 0:
            raise ValueError(f"sampling period must be positive, got {period_ns}")
        if self._sampler is not None and self._sampler.is_alive:
            raise RuntimeError("metrics sampler already running")

        def body() -> collections.abc.Generator:
            while True:
                yield self.engine.timeout(period_ns)
                self.sample()

        self._sampler = self.engine.process(
            body(), name="cluster.metrics", daemon=True
        )
        if self.engine.fluid is not None:
            # Sampling ticks bound fluid windows exactly (no guard):
            # window stats are credited before the jump, so a snapshot
            # at the tick reads fully-settled counters and never a
            # partially credited interval.
            from repro.sim.fluid import PeriodicTransient

            self._tick_source = PeriodicTransient(period_ns, anchor_ns=self.engine.now)
            self.engine.fluid.register(self._tick_source, guarded=False)

    def stop(self) -> None:
        if self._sampler is not None and self._sampler.is_alive:
            self._sampler.kill()
        self._sampler = None
        if self._tick_source is not None and self.engine.fluid is not None:
            self.engine.fluid.unregister(self._tick_source)
        self._tick_source = None

    def __repr__(self) -> str:
        where = str(self.path) if self.path is not None else "memory"
        return f"<MetricsRegistry {len(self.snapshots)} snapshots -> {where}>"


def dumps_canonical(snapshot: dict) -> str:
    """One snapshot's canonical serialization (sorted keys, compact)."""
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))


def read_series(path) -> list[dict]:
    """Load an exported JSON-lines series back into snapshot dicts."""
    return [
        json.loads(line)
        for line in pathlib.Path(path).read_text().splitlines()
        if line
    ]
