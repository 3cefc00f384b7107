"""Node-level loopback harness (§5, Figure 8).

"We measure each stage of the pipeline on a single FPGA and inject
scoring requests collected from real-world traces ... in two loopback
modes: (1) requests and responses sent over PCIe and (2) requests and
responses routed through a loopback SAS cable."

* **PCIe mode** — the injecting host and the stage share one server:
  host -> DMA -> role -> DMA -> host; no SL3 traffic.
* **SL3 mode** — the injector sits on a neighbouring server one SAS
  cable away, so every request and response crosses the link, exposing
  SL3 serialization and hop latency.
"""

from __future__ import annotations

import collections.abc
import enum
import itertools

from repro.fabric.server import Server
from repro.hardware.bitstream import Bitstream
from repro.host.slots import SlotExhausted, SlotLease, shared_slot_allocator
from repro.ranking.engine import ScoringEngine
from repro.ranking.pipeline import ranking_bitstreams
from repro.ranking.stages import (
    CompressionRole,
    FeatureExtractionRole,
    FfeRole,
    RankingPayload,
    ScoringRole,
    SpareRankingRole,
)
from repro.shell.router import Port
from repro.shell.shell import ShellConfig
from repro.shell.sl3 import Sl3Link
from repro.sim import AllOf, Engine, Event

_STAGE_CLASSES = {
    "fe": FeatureExtractionRole,
    "ffe0": FfeRole,
    "ffe1": FfeRole,
    "compress": CompressionRole,
    "score0": ScoringRole,
    "score1": ScoringRole,
    "score2": ScoringRole,
    "spare": SpareRankingRole,
}


class LoopbackMode(enum.Enum):
    PCIE = "pcie"
    SL3 = "sl3"


class _LoopbackAssignment:
    """Stands in for a RingAssignment: one stage, nothing downstream."""

    loopback = True

    def __init__(self, scoring_engine: ScoringEngine, qm_policy: str = "batch"):
        self.scoring_engine = scoring_engine
        self.qm_policy = qm_policy

    def downstream_of(self, _role_name: str):
        return None


class LoopbackHarness:
    """One ranking stage on one FPGA, injectable from PCIe or SL3."""

    def __init__(
        self,
        engine: Engine,
        stage: str,
        scoring_engine: ScoringEngine,
        shell_config: ShellConfig | None = None,
    ):
        if stage not in _STAGE_CLASSES:
            raise ValueError(f"unknown ranking stage {stage!r}")
        self.engine = engine
        self.stage = stage
        self.scoring_engine = scoring_engine
        config = shell_config or ShellConfig()
        self.stage_server = Server(engine, "loop-stage", (0, 0), config)
        self.injector_server = Server(engine, "loop-host", (1, 0), config)
        # One SAS cable between the two servers (the SL3-mode path).
        east = self.stage_server.shell.create_endpoint(Port.EAST)
        west = self.injector_server.shell.create_endpoint(Port.WEST)
        Sl3Link(engine, east, west, config=config.sl3, name="loopback")
        self.stage_server.shell.router.set_route((1, 0), Port.EAST)
        self.injector_server.shell.router.set_route((0, 0), Port.WEST)
        east.release_rx_halt()
        west.release_rx_halt()
        # Configure and attach the stage role.
        bitstream: Bitstream = ranking_bitstreams()[stage][0]
        done = self.stage_server.fpga.reconfigure(bitstream)
        engine.run_until(done)
        assignment = _LoopbackAssignment(scoring_engine)
        self.role = _STAGE_CLASSES[stage](assignment, stage)
        self.stage_server.shell.attach_role(self.role)

    def measure_throughput(
        self,
        pool: list,
        mode: LoopbackMode,
        threads: int = 1,
        requests_per_thread: int = 20,
    ) -> float:
        """Closed-loop injection rate (requests/second) for this stage.

        Each thread owns one slot from the injecting server's shared
        allocator for the life of the harness, as §3.1 assigns them.
        """
        server = (
            self.stage_server if mode is LoopbackMode.PCIE else self.injector_server
        )
        allocator = shared_slot_allocator(server)
        if threads > allocator.free_count:
            raise SlotExhausted(f"{threads} threads, {allocator.free_count} free slots")
        slot_ids = allocator.acquire(threads, owner=f"loopback:{self.stage}")
        pool_cycle = itertools.cycle(pool)
        started = self.engine.now
        completed = [0]

        def thread_body(lease) -> collections.abc.Generator:
            for _ in range(requests_per_thread):
                request = next(pool_cycle)
                payload = RankingPayload(document=request.document)
                yield from lease.request(
                    dst=(0, 0), size_bytes=request.size_bytes, payload=payload
                )
                completed[0] += 1

        procs = [
            self.engine.process(thread_body(SlotLease(server, slot_id)))
            for slot_id in slot_ids
        ]
        done: Event = AllOf(self.engine, procs)
        self.engine.run_until(done)
        elapsed_ns = self.engine.now - started
        return completed[0] * 1e9 / max(elapsed_ns, 1e-9)
