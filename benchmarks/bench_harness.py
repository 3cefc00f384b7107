"""Shared experiment machinery for the benchmark suite.

Builds deployed, warmed ranking rings and holds the §5 rate anchors.
The experiments drive a ring through ``Deployment.submit``: closed-loop
threads with ``spawn_injector``, Poisson traffic with an
``OpenLoopInjector`` over the ring (or over a ``SoftwareRanker`` for
the software baseline).
"""

from __future__ import annotations

from repro.fabric import Pod, TorusTopology
from repro.ranking.models import ModelLibrary
from repro.ranking.pipeline import RankingPipeline
from repro.sim import Engine

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


def build_ring(
    seed: int = 1, model_scale: float = 1.0, qm_policy: str = "batch"
) -> tuple[Engine, Pod, RankingPipeline, list]:
    """A deployed 8-FPGA ranking ring on a 2x8 pod plus a request pool."""
    eng = Engine(seed=seed)
    pod = Pod(eng, topology=TorusTopology(width=2, height=8))
    library = ModelLibrary.default(scale=model_scale)
    pipeline = RankingPipeline(eng, pod, library, ring_x=0, qm_policy=qm_policy)
    pipeline.deploy()
    pool = pipeline.make_request_pool(48, seed=seed + 100)
    warm_engine(pipeline, pool)
    return eng, pod, pipeline, pool


def warm_engine(pipeline: RankingPipeline, pool: list) -> None:
    """Pre-compute functional results so timing runs are pure timing."""
    for request in pool:
        model = pipeline.library[request.document.model_id]
        pipeline.scoring_engine.score(request.document, model)
