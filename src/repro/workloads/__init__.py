"""Synthetic workloads standing in for production Bing traces.

The paper evaluates on documents sampled from real-world traces; those
are proprietary, so this package generates synthetic traces calibrated
to every statistic the paper reports: compressed sizes averaging
6.5 KB with a 53 KB 99th percentile and ~0.14 % above the 64 KB
truncation threshold (Figure 4), Zipfian query-term popularity, and a
multi-model query mix for Queue Manager experiments.

:mod:`repro.workloads.openloop` adds the one load generator,
:class:`OpenLoopInjector`: Poisson, bursty, and diurnal arrival
processes with admission control that drive the cluster front end, and
the closed-loop injector threads of §5 (:class:`ClosedLoop`) that drive
one deployment from a pinned server.
"""

from repro.workloads.openloop import (
    ArrivalProcess,
    BurstyArrivals,
    ClosedLoop,
    DiurnalArrivals,
    OpenLoopInjector,
    OpenLoopStats,
    PoissonArrivals,
)
from repro.workloads.sizes import DocumentSizeDistribution
from repro.workloads.traces import ScoringRequest, TraceGenerator

__all__ = [
    "ArrivalProcess",
    "BurstyArrivals",
    "ClosedLoop",
    "DiurnalArrivals",
    "DocumentSizeDistribution",
    "OpenLoopInjector",
    "OpenLoopStats",
    "PoissonArrivals",
    "ScoringRequest",
    "TraceGenerator",
]
