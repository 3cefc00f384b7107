"""Node-level loopback rig (§5, Figure 8).

"We measure each stage of the pipeline on a single FPGA and inject
scoring requests collected from real-world traces ... in two loopback
modes: (1) requests and responses sent over PCIe and (2) requests and
responses routed through a loopback SAS cable."

:func:`loopback_rig` stands one ranking stage up alone: a whole-ring
:class:`~repro.cluster.deployment.Deployment` of a one-role service on
ring 0 of a one-pod 2x2 datacenter.  The stage is the ring's only
active role, so it has no downstream stage and answers each request
itself.  Traffic goes through the deployment's one dispatch body
(``Deployment.submit``), typically from an
:class:`~repro.workloads.openloop.OpenLoopInjector` with a
:class:`~repro.workloads.openloop.ClosedLoop` population pinned to the
mode's injection server:

* **PCIe mode** — the injecting host and the stage share one server:
  host -> DMA -> role -> DMA -> host; no SL3 traffic.
* **SL3 mode** — the injector sits on node ``(0, 1)``, one SAS cable
  away, so every request and response crosses the link, exposing SL3
  serialization and hop latency.
"""

from __future__ import annotations

import dataclasses
import enum

from repro.cluster.deployment import Deployment
from repro.fabric.datacenter import Datacenter
from repro.fabric.server import Server
from repro.fabric.torus import TorusTopology
from repro.ranking.engine import ScoringEngine
from repro.ranking.pipeline import RankingRequestAdapter, ranking_service
from repro.services.mapping_manager import ServiceDefinition
from repro.sim import Engine

# The SL3-mode injector: ring 0's second node, one hop from the stage.
SL3_INJECTION_NODE = (0, 1)


class LoopbackMode(enum.Enum):
    PCIE = "pcie"
    SL3 = "sl3"

    def injection_server(self, rig: Deployment) -> Server:
        """The server whose host threads inject in this mode."""
        node = rig.head_node if self is LoopbackMode.PCIE else SL3_INJECTION_NODE
        return rig.pod.server_at(node)


def loopback_rig(
    engine: Engine, stage: str, scoring_engine: ScoringEngine
) -> Deployment:
    """One ranking ``stage`` configured alone on ring 0 of a one-pod
    2x2 datacenter; returns its deployment once configured.

    The stage's image and role come from :func:`ranking_service`; the
    other FPGAs hold its spare image, renamed so a ``spare`` stage does
    not clash with it.
    """
    ranking = ranking_service(scoring_engine)
    specs = {spec.name: spec for spec in (*ranking.roles, ranking.spare)}
    if stage not in specs:
        raise ValueError(f"unknown ranking stage {stage!r}")
    service = ServiceDefinition(
        name=f"loopback-{stage}",
        roles=(specs[stage],),
        spare=dataclasses.replace(ranking.spare, name="idle"),
    )
    datacenter = Datacenter(engine, num_pods=1, topology=TorusTopology(width=2, height=2))
    rig = Deployment(engine, datacenter.pod(0), service, adapter=RankingRequestAdapter())
    engine.drive(rig.configure())
    return rig
