"""FPGA roles for the eight-stage ranking ring (§4.2, Figure 5).

One FPGA for Feature Extraction (which also hosts the Queue Manager),
two for Free-Form Expressions, one for Compression, three for the
machine-learned scorer banks, and one spare.  Each role couples the
shared functional engine with a per-stage timing model; stage clock
frequencies come from Table 1.

Stage service times (per document):

* FE — proportional to the hit-vector token count: the 43 state
  machines consume the stream at 1–2 tokens/clock with a two-wide
  front end (§4.4), plus a DRAM dequeue from the Queue Manager;
* FFE — the cycle count of the stage's program on the 60-core
  processor model (data-independent, cached per model);
* Compression — proportional to the packed-vector length;
* Scoring — tree banks evaluate in parallel; latency ~ tree depth;
* Spare — pure store-and-forward.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import typing

from repro.ranking.documents import CompressedDocument
from repro.ranking.engine import ScoringEngine
from repro.ranking.models import RankingModel
from repro.ranking.queue_manager import QueueManager
from repro.shell.messages import Packet, PacketKind
from repro.shell.role import Role
from repro.sim.units import cycles_to_ns

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.services.mapping_manager import RingAssignment

# Stage clock frequencies (MHz), per Table 1.
FE_CLOCK_MHZ = 150.0
FFE_CLOCK_MHZ = 125.0
COMPRESS_CLOCK_MHZ = 180.0
SCORE_CLOCK_MHZ = 166.0
SPARE_CLOCK_MHZ = 175.0

# FE timing: 1-2 cycles per token (§4.4); 1.0 effective with the
# double-buffered input overlap.
FE_CYCLES_PER_TOKEN = 1.0
FE_FIXED_CYCLES = 150

# Compression: table-lookup packing, several slots per cycle.
COMPRESS_CYCLES_PER_SLOT = 0.25
COMPRESS_FIXED_CYCLES = 100

# Scoring: banks of trees evaluate in parallel; pipeline depth ~ tree
# depth plus accumulation.
SCORE_CYCLES_PER_TREE_LEVEL = 4
SCORE_FIXED_CYCLES = 120

SPARE_FORWARD_CYCLES = 30

RESPONSE_BYTES = 64  # score + query id + performance counters (§4.1)
FEATURE_ENTRY_BYTES = 6  # {feature id, value} pairs on the wire


@dataclasses.dataclass
class RankingPayload:
    """What a request carries as it moves down the ring.

    The document rides the whole way (its bytes dominate only the
    host->FE hop; downstream hops carry the growing artifact set whose
    sizes determine serialization times).
    """

    document: CompressedDocument
    features: dict | None = None
    ffe_merged: dict | None = None
    packed: list | None = None
    partial_score: float = 0.0
    score: float | None = None


class RankingStageRole(Role):
    """Common machinery: model tracking, reload handling, forwarding."""

    clock_mhz = 150.0

    def __init__(self, assignment: "RingAssignment", role_name: str):
        super().__init__()
        self.name = role_name
        self.assignment = assignment
        self.engine_ref: ScoringEngine = assignment.scoring_engine
        self.current_model_id: int | None = None
        self.docs_processed = 0
        self.reloads = 0
        self.busy_ns = 0.0

    # -- helpers -------------------------------------------------------------

    @property
    def sim(self):
        return self.shell.engine

    def downstream(self):
        return self.assignment.downstream_of(self.name)

    def forward(self, packet: Packet, payload_bytes: int):
        """Send ``packet`` (re-sized) to the next stage.

        A stage deployed alone (the node-level loopback rig of §5's
        per-stage injection experiments) has no next stage: the result
        goes straight back to the injecting host.
        """
        downstream = self.downstream()
        if downstream is None:
            return self.send(packet.response_to(RESPONSE_BYTES, packet.payload))
        forwarded = Packet(
            kind=packet.kind,
            src=packet.src,
            dst=downstream,
            size_bytes=payload_bytes,
            payload=packet.payload,
            trace_id=packet.trace_id,
            injected_at_ns=packet.injected_at_ns,
            slot_id=packet.slot_id,
        )
        return self.send(forwarded)

    def model_reload_ns(self, model: RankingModel) -> float:
        """Reload this stage's tables from DRAM (§4.3)."""
        stage_bytes = model.footprint.stage_bytes(self.stage_key())
        dram = self.shell.dram[0]
        return dram.transfer_time_ns(stage_bytes, sequential=True)

    def stage_key(self) -> str:
        return self.name

    def handle(self, packet: Packet) -> collections.abc.Generator:
        if packet.kind is PacketKind.MODEL_RELOAD:
            yield from self._handle_reload(packet)
        elif packet.kind is PacketKind.REQUEST:
            started = self.sim.now
            yield from self.process_document(packet)
            self.busy_ns += self.sim.now - started
            self.docs_processed += 1

    def _handle_reload(self, packet: Packet) -> collections.abc.Generator:
        model: RankingModel = self.engine_ref.library[packet.payload]
        self.reloads += 1
        yield self.sim.timeout(self.model_reload_ns(model))
        self.current_model_id = model.model_id
        if self.downstream() is not None:
            yield self.forward(packet, packet.size_bytes)

    def process_document(self, packet: Packet) -> collections.abc.Generator:
        raise NotImplementedError

    def service_ns(self, cycles: float) -> float:
        return cycles_to_ns(cycles, self.clock_mhz)


class FeatureExtractionRole(RankingStageRole):
    """FE: the pipeline head — Queue Manager + 43 feature machines."""

    clock_mhz = FE_CLOCK_MHZ

    def __init__(self, assignment, role_name: str = "fe"):
        super().__init__(assignment, role_name)
        self.queue_manager: QueueManager | None = None

    def on_attach(self) -> None:
        self.queue_manager = QueueManager(
            self.sim,
            dispatch=self._dispatch_document,
            reload_model=self._switch_model,
            policy=self.assignment.qm_policy,
        )

    def detach(self) -> None:
        if self.queue_manager is not None and self.queue_manager.process.is_alive:
            self.queue_manager.process.kill()
        super().detach()

    def stage_key(self) -> str:
        return "fe"

    def handle(self, packet: Packet) -> collections.abc.Generator:
        if packet.kind is PacketKind.REQUEST:
            # Into the DRAM queue for its model; the QM drives dispatch.
            payload: RankingPayload = packet.payload
            self.queue_manager.enqueue(payload.document.model_id, packet)
        return
        yield  # pragma: no cover - handle() must be a generator

    def _switch_model(self, model_id: int) -> collections.abc.Generator:
        """QM model switch: reload FE and ripple a reload downstream."""
        model = self.engine_ref.library[model_id]
        self.reloads += 1
        yield self.sim.timeout(self.model_reload_ns(model))
        self.current_model_id = model_id
        downstream = self.downstream()
        if downstream is None:
            return  # deployed alone: nothing downstream to reload
        reload_packet = Packet(
            kind=PacketKind.MODEL_RELOAD,
            src=self.shell.node_id,
            dst=downstream,
            size_bytes=64,
            payload=model_id,
        )
        yield self.send(reload_packet)

    def _dispatch_document(self, packet: Packet) -> collections.abc.Generator:
        """Dequeue from DRAM, extract features, forward to FFE 0."""
        payload: RankingPayload = packet.payload
        document = payload.document
        dram = self.shell.dram[0]
        yield dram.transfer(packet.size_bytes)  # dequeue the request
        tokens = document.total_tuples
        yield self.sim.timeout(
            self.service_ns(FE_FIXED_CYCLES + FE_CYCLES_PER_TOKEN * tokens)
        )
        payload.features = self.engine_ref.features(document)
        self.docs_processed += 1
        feature_bytes = FEATURE_ENTRY_BYTES * len(payload.features)
        yield self.forward(packet, feature_bytes)


class FfeRole(RankingStageRole):
    """FFE: one of the two free-form-expression FPGAs."""

    clock_mhz = FFE_CLOCK_MHZ

    def __init__(self, assignment, role_name: str):
        super().__init__(assignment, role_name)
        self.stage_index = 0 if role_name.endswith("0") else 1

    def process_document(self, packet: Packet) -> collections.abc.Generator:
        payload: RankingPayload = packet.payload
        model = self.engine_ref.model_for(payload.document)
        cycles = self.engine_ref.ffe_stage_cycles(model, self.stage_index)
        yield self.sim.timeout(self.service_ns(cycles))
        if self.stage_index == 1:
            payload.ffe_merged = self.engine_ref.ffe_values(payload.document, model)
            size = FEATURE_ENTRY_BYTES * len(payload.ffe_merged)
        else:
            outputs = self.engine_ref.ffe_stage0_outputs(model)
            size = packet.size_bytes + FEATURE_ENTRY_BYTES * outputs
        yield self.forward(packet, size)


class CompressionRole(RankingStageRole):
    """Compression: pack the sparse vector for the scoring banks."""

    clock_mhz = COMPRESS_CLOCK_MHZ

    def stage_key(self) -> str:
        return "compress"

    def process_document(self, packet: Packet) -> collections.abc.Generator:
        payload: RankingPayload = packet.payload
        model = self.engine_ref.model_for(payload.document)
        cycles = COMPRESS_FIXED_CYCLES + COMPRESS_CYCLES_PER_SLOT * len(
            model.compression
        )
        yield self.sim.timeout(self.service_ns(cycles))
        payload.packed = self.engine_ref.packed(payload.document, model)
        yield self.forward(packet, model.compression.packed_bytes())


class ScoringRole(RankingStageRole):
    """One of the three scorer banks; bank 2 emits the response."""

    clock_mhz = SCORE_CLOCK_MHZ

    def __init__(self, assignment, role_name: str):
        super().__init__(assignment, role_name)
        self.bank = int(role_name[-1])

    def process_document(self, packet: Packet) -> collections.abc.Generator:
        payload: RankingPayload = packet.payload
        model = self.engine_ref.model_for(payload.document)
        depth = 6  # bank trees evaluate in parallel; latency ~ depth
        cycles = SCORE_FIXED_CYCLES + SCORE_CYCLES_PER_TREE_LEVEL * depth
        yield self.sim.timeout(self.service_ns(cycles))
        payload.partial_score += self.engine_ref.bank_partial(
            payload.document, model, self.bank
        )
        if self.bank == 2:
            payload.score = payload.partial_score
            response = packet.response_to(RESPONSE_BYTES, payload)
            yield self.send(response)
        else:
            yield self.forward(packet, packet.size_bytes)


class SpareRankingRole(RankingStageRole):
    """The spare: a configured pass-through keeping the ring rotatable."""

    clock_mhz = SPARE_CLOCK_MHZ

    def stage_key(self) -> str:
        return "spare"

    def handle(self, packet: Packet) -> collections.abc.Generator:
        # The spare holds no model state; as a ring's spare image it
        # only forwards router traffic.  Deployed as an active role (the
        # loopback rig) it echoes requests, so its injection rate can be
        # measured like the other stages.
        yield self.sim.timeout(self.service_ns(SPARE_FORWARD_CYCLES))
        if (
            packet.kind is PacketKind.REQUEST
            and self.name in self.assignment.role_to_node
        ):
            yield self.send(packet.response_to(RESPONSE_BYTES, packet.payload))
