"""Shared experiment machinery for the benchmark suite.

Places warmed ranking rings through the cluster control plane and holds
the §5 rate anchors.  Every experiment drives its ring with one load
generator, an ``OpenLoopInjector``: closed-loop threads from a
``ClosedLoop`` population over the placed deployment (Figures 9-13,
through ``Deployment.submit``), or Poisson traffic over
``manager.endpoint("bing-ranking")`` (or over a ``SoftwareRanker`` for
the software baseline).
"""

from __future__ import annotations

import typing

from repro.cluster import ClusterManager, Deployment, ServiceEndpoint
from repro.fabric import Datacenter, Pod, TorusTopology
from repro.ranking.engine import ScoringEngine
from repro.ranking.models import ModelLibrary
from repro.ranking.pipeline import ranking_spec
from repro.sim import Engine
from repro.workloads import TraceGenerator

# Empirical anchors from the calibration run (see EXPERIMENTS.md):
# the 8-FPGA ring saturates at ~77 K docs/s (FE-bound at 1 cycle per
# hit-vector token), i.e. ~9.6 K docs/s per server when all eight ring
# servers share it; a software server saturates at ~7.2 K docs/s
# nominal, ~5.5 K effective once memory-hierarchy contention inflates
# service times.  Per-server capacity ratio at the latency bound:
# ~1.9x (paper: 1.95x).  "Injection rate 1.0" normalizes so both
# systems remain stable through the paper's rate-2.0 sweep (Figure 14).
FPGA_PER_SERVER_SATURATION_PER_S = 9_600.0
RATE_ONE_PER_S = 2_600.0


class Ring(typing.NamedTuple):
    """One placed ranking ring and what the experiments read off it."""

    engine: Engine
    pod: Pod
    manager: ClusterManager
    deployment: Deployment
    endpoint: ServiceEndpoint
    scoring_engine: ScoringEngine
    library: ModelLibrary
    pool: list


def build_ring(
    seed: int = 1, model_scale: float = 1.0, qm_policy: str = "batch"
) -> Ring:
    """An 8-FPGA ranking ring placed on a one-pod 2x8 datacenter, plus
    a warmed request pool."""
    engine = Engine(seed=seed)
    manager = ClusterManager(
        Datacenter(engine, num_pods=1, topology=TorusTopology(width=2, height=8))
    )
    library = ModelLibrary.default(scale=model_scale)
    scoring_engine = ScoringEngine(library)
    handle = manager.apply(ranking_spec(scoring_engine, qm_policy))
    generator = TraceGenerator(seed=seed + 100)
    pool = [generator.request() for _ in range(48)]
    warm_engine(scoring_engine, library, pool)
    return Ring(
        engine,
        manager.datacenter.pod(0),
        manager,
        handle.deployments[0],
        manager.endpoint("bing-ranking"),
        scoring_engine,
        library,
        pool,
    )


def warm_engine(scoring_engine: ScoringEngine, library: ModelLibrary, pool: list) -> None:
    """Pre-compute functional results so timing runs are pure timing."""
    for request in pool:
        scoring_engine.score(request.document, library[request.document.model_id])
