"""The ranking service as the control plane declares it (§4, §5).

``ranking_service`` builds the :class:`ServiceDefinition` mapping the
eight ranking roles (Figure 5) onto a ring, with bitstreams synthesized
from the Table-1-calibrated component library.
:class:`RankingRequestAdapter` supplies the ranking-specific parts —
the software portion of scoring (SSD lookup, hit-vector computation on
a CPU core, §4) and the :class:`RankingPayload` that rides the ring.
``ranking_spec`` pairs the two into the :class:`ServiceSpec` that
``ClusterManager.apply`` places; every request then goes through
``manager.endpoint("bing-ranking")`` or a placed
:class:`~repro.cluster.deployment.Deployment`'s one dispatch body
(``submit``).
"""

from __future__ import annotations

import collections.abc
import typing

from repro.cluster.deployment import RequestAdapter
from repro.cluster.spec import ServiceSpec
from repro.fabric.server import Server
from repro.hardware.synthesis import synthesize
from repro.ranking.engine import ScoringEngine
from repro.ranking.stages import (
    CompressionRole,
    FeatureExtractionRole,
    FfeRole,
    RankingPayload,
    ScoringRole,
    SpareRankingRole,
)
from repro.services.mapping_manager import (
    RingAssignment,
    RoleSpec,
    ServiceDefinition,
)
from repro.sim.units import US

if typing.TYPE_CHECKING:  # pragma: no cover - avoids a package cycle
    from repro.workloads.traces import ScoringRequest

__all__ = [
    "HOST_PREP_CPU_NS",
    "RankingRequestAdapter",
    "SSD_LOOKUP_NS",
    "ranking_bitstreams",
    "ranking_service",
    "ranking_spec",
]

# Host-side software portion per request (§4): SSD metastream fetch and
# hit-vector computation + encoding on a CPU core.
SSD_LOOKUP_NS = 20 * US
HOST_PREP_CPU_NS = 30 * US

# Component counts per role, calibrated so synthesis lands on Table 1.
ROLE_COMPONENTS: dict[str, dict[str, int]] = {
    "fe": {
        "fe.state_machine": 43,
        "fe.stream_processor": 1,
        "fe.gathering_network": 1,
    },
    "ffe0": {"ffe.core": 60, "ffe.complex_block": 10, "ffe.feature_store": 10},
    "ffe1": {"ffe.core": 60, "ffe.complex_block": 10, "ffe.feature_store": 10},
    "compress": {"compress.engine": 1},
    "score0": {"score.tree_bank": 40, "score.evaluator": 1},
    "score1": {"score.tree_bank": 40, "score.evaluator": 1},
    "score2": {"score.tree_bank": 41, "score.evaluator": 1},
    "spare": {"spare.passthrough": 1},
}

ROLE_ORDER = ("fe", "ffe0", "ffe1", "compress", "score0", "score1", "score2")
SPARE_NAME = "spare"

_ROLE_CLASSES = {
    "fe": FeatureExtractionRole,
    "ffe0": FfeRole,
    "ffe1": FfeRole,
    "compress": CompressionRole,
    "score0": ScoringRole,
    "score1": ScoringRole,
    "score2": ScoringRole,
    "spare": SpareRankingRole,
}


def ranking_bitstreams() -> dict[str, object]:
    """Synthesize every ranking role; returns {role: (bitstream, report)}."""
    return {
        role: synthesize(role, components)
        for role, components in ROLE_COMPONENTS.items()
    }


def ranking_service(
    scoring_engine: ScoringEngine, qm_policy: str = "batch"
) -> ServiceDefinition:
    """The 7-active-roles-plus-spare service of Figure 5."""
    synthesized = ranking_bitstreams()

    def make_factory(role_name: str):
        role_class = _ROLE_CLASSES[role_name]

        def factory(assignment: RingAssignment, name: str):
            # Stash shared context on the assignment for the stages.
            assignment.scoring_engine = scoring_engine
            assignment.qm_policy = qm_policy
            return role_class(assignment, name)

        return factory

    roles = tuple(
        RoleSpec(
            name=role_name,
            bitstream=synthesized[role_name][0],
            factory=make_factory(role_name),
        )
        for role_name in ROLE_ORDER
    )
    spare = RoleSpec(
        name=SPARE_NAME,
        bitstream=synthesized[SPARE_NAME][0],
        factory=make_factory(SPARE_NAME),
    )
    return ServiceDefinition(name="bing-ranking", roles=roles, spare=spare)


class RankingRequestAdapter(RequestAdapter):
    """Ranking-specific dispatch: host prep plus the ring payload (§4)."""

    def payload_for(self, request: "ScoringRequest") -> RankingPayload:
        return RankingPayload(document=request.document)

    def size_of(self, request: "ScoringRequest") -> int:
        return request.size_bytes

    def prep(self, server: Server) -> collections.abc.Generator:
        """SSD metastream fetch, then hit-vector prep on a CPU core."""
        yield server.engine.timeout(SSD_LOOKUP_NS)
        yield from server.run_on_core(HOST_PREP_CPU_NS)


def ranking_spec(
    scoring_engine: ScoringEngine, qm_policy: str = "batch", **spec_fields
) -> ServiceSpec:
    """The :class:`ServiceSpec` declaring the ranking service.

    Pairs :func:`ranking_service` with :class:`RankingRequestAdapter`;
    ``spec_fields`` are the spec's own (``replicas``, ``balancing``,
    ``health_period_ns``, ...).  The scoring engine is shared by every
    replica, so callers warm their request pools on it.
    """
    return ServiceSpec(
        service=ranking_service(scoring_engine, qm_policy),
        adapter=RankingRequestAdapter(),
        **spec_fields,
    )
