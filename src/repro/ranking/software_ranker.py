"""The pure-software baseline ranker (§5, Figures 14–15).

The same functional pipeline — feature extraction, free-form
expressions, tree-ensemble scoring — executed entirely on the server's
12 cores.  Scores are bit-identical to the FPGA path (both call the
shared :class:`ScoringEngine`).

The timing model captures why software loses at the tail: per-document
CPU time is large (the FPGA's parallel feature machines and 240-thread
FFE processor collapse to sequential core work), and *grows noisier
under load* — contention in the memory hierarchy inflates service
times superlinearly with core occupancy, which is exactly the
mechanism the paper cites for the widening software tail at higher
injection rates ("the variability of software latency increases at
higher loads due to contention in the CPU's memory hierarchy while
the FPGA's performance remains stable").

:meth:`SoftwareRanker.submit` makes the ranker an open-loop sink, so
the Figure 14–15 baseline runs behind the same
:class:`~repro.workloads.OpenLoopInjector` as the fabric.
"""

from __future__ import annotations

import collections.abc
import typing

from repro.analysis import ReservoirSample
from repro.fabric.server import Server
from repro.ranking.engine import ScoringEngine
from repro.ranking.models import RankingModel
from repro.sim.units import US

if typing.TYPE_CHECKING:  # pragma: no cover - avoids a package cycle
    from repro.workloads.traces import ScoringRequest


class SoftwareRanker:
    """Scores requests on the host CPU with a contention-aware model."""

    SSD_LOOKUP_NS = 20 * US
    PREP_NS = 60 * US  # hit-vector computation and setup
    METASTREAM_NS_PER_TOKEN = 60.0  # stream walking / tokenization
    FE_NS_PER_TUPLE = 300.0  # 43 machines' work, serialized on a core
    FFE_NS_PER_INSTRUCTION = 35.0  # interpreter-style FFE evaluation
    SCORE_NS_PER_NODE_VISIT = 25.0
    TREE_DEPTH_VISITED = 6

    # Contention in the memory hierarchy: multiplicative inflation that
    # grows with core occupancy, plus load-dependent log-normal jitter.
    CONTENTION_COEFF = 0.30
    JITTER_BASE_SIGMA = 0.05
    JITTER_LOAD_SIGMA = 0.55

    def __init__(self, server: Server, scoring_engine: ScoringEngine):
        self.server = server
        self.engine = server.engine
        self.scoring_engine = scoring_engine
        self._rng = server.engine.rng.stream(f"swrank:{server.machine_id}")
        self.latencies_ns = ReservoirSample()
        self.scored = 0
        self.outstanding = 0  # in submit(), not yet scored

    # -- timing model ---------------------------------------------------------

    def base_service_ns(self, request: ScoringRequest, model: RankingModel) -> float:
        """Deterministic per-document CPU time (one core)."""
        document = request.document
        tuples = document.total_tuples
        ffe_instructions = (
            model.ffe_stage0.instruction_count + model.ffe_stage1.instruction_count
        )
        node_visits = model.scorer.tree_count * self.TREE_DEPTH_VISITED
        return (
            self.PREP_NS
            + document.doc_length * self.METASTREAM_NS_PER_TOKEN
            + tuples * self.FE_NS_PER_TUPLE
            + ffe_instructions * self.FFE_NS_PER_INSTRUCTION
            + node_visits * self.SCORE_NS_PER_NODE_VISIT
        )

    def _inflated_service_ns(self, base_ns: float) -> float:
        cpu = self.server.cpu
        utilization = (cpu.in_use - 1) / max(cpu.capacity - 1, 1)
        utilization = min(max(utilization, 0.0), 1.0)
        contention = 1.0 + self.CONTENTION_COEFF * utilization**1.5
        sigma = self.JITTER_BASE_SIGMA + self.JITTER_LOAD_SIGMA * utilization**2
        jitter = self._rng.lognormvariate(0.0, sigma)
        return base_ns * contention * jitter

    # -- scoring --------------------------------------------------------------

    def score_request(self, request: ScoringRequest) -> collections.abc.Generator:
        """Score one request on a CPU core; returns (score, latency_ns)."""
        started = self.engine.now
        model = self.scoring_engine.library[request.document.model_id]
        yield self.engine.timeout(self.SSD_LOOKUP_NS)
        grant = self.server.cpu.request()
        yield grant
        try:
            service = self._inflated_service_ns(self.base_service_ns(request, model))
            yield self.engine.timeout(service)
        finally:
            self.server.cpu.release()
        score = self.scoring_engine.score(request.document, model)
        latency = self.engine.now - started
        self.latencies_ns.append(latency)
        self.scored += 1
        return score, latency

    def submit(
        self, request: ScoringRequest, timeout_ns: float
    ) -> collections.abc.Generator:
        """Serve one request as an open-loop sink (a generator).

        Returns ``score_request``'s ``(score, latency_ns)``, or ``None``
        when the latency exceeded ``timeout_ns`` — a timeout, as on the
        fabric path.
        """
        self.outstanding += 1
        try:
            result = yield from self.score_request(request)
        finally:
            self.outstanding -= 1
        return None if result[1] > timeout_ns else result
