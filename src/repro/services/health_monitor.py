"""The Health Monitor (§3.5).

Invoked when a machine higher in the service hierarchy notices a set of
unresponsive servers.  It queries each machine over Ethernet; an
unresponsive server is walked through soft reboot, then hard reboot,
then flagged for manual service.  A responsive server returns the error
vector: inter-FPGA link errors, DRAM status (bit errors and calibration
failures), application errors, PLL lock issues, PCIe errors, and
temperature shutdowns — plus the machine IDs of the north/south/east/
west neighbours so miswired or unplugged cables are caught.

The resulting report updates the failed-machine list, which invokes
the Mapping Manager for role relocation.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import typing

from repro.fabric.ethernet import RpcTimeout
from repro.fabric.pod import Pod
from repro.fabric.torus import NodeId
from repro.sim import Engine, Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.services.mapping_manager import MappingManager


@dataclasses.dataclass
class ErrorFlags:
    """The §3.5 error vector, distilled into actionable flags."""

    unresponsive: bool = False
    fpga_failed: bool = False
    pll_unlocked: bool = False
    link_down: tuple = ()  # port names with dead links
    neighbor_mismatch: tuple = ()  # (port, expected, seen)
    dram_calibration_failed: bool = False
    dram_uncorrectable: bool = False
    app_error: bool = False
    seu_uncorrected: bool = False
    temp_shutdown: bool = False

    @property
    def any_error(self) -> bool:
        return any(
            (
                self.unresponsive,
                self.fpga_failed,
                self.pll_unlocked,
                bool(self.link_down),
                bool(self.neighbor_mismatch),
                self.dram_calibration_failed,
                self.dram_uncorrectable,
                self.app_error,
                self.seu_uncorrected,
                self.temp_shutdown,
            )
        )

    @property
    def needs_relocation(self) -> bool:
        """Hardware problems: move the role off this machine."""
        return (
            self.fpga_failed
            or self.pll_unlocked
            or bool(self.link_down)
            or bool(self.neighbor_mismatch)
            or self.dram_calibration_failed
            or self.temp_shutdown
        )

    @property
    def needs_reconfig_only(self) -> bool:
        """Transient state problems: reconfiguring in place suffices."""
        return not self.needs_relocation and (
            self.app_error or self.seu_uncorrected or self.unresponsive
        )


@dataclasses.dataclass
class MachineDiagnosis:
    """Outcome of investigating one machine."""

    machine_id: str
    node_id: NodeId
    flags: ErrorFlags
    reboots_performed: int = 0
    marked_dead: bool = False
    raw_health: dict | None = None


@dataclasses.dataclass
class HealthReport:
    """Outcome of one Health Monitor invocation."""

    diagnoses: list[MachineDiagnosis]
    started_at_ns: float
    finished_at_ns: float

    @property
    def failed_machines(self) -> list[MachineDiagnosis]:
        return [d for d in self.diagnoses if d.flags.any_error or d.marked_dead]

    @property
    def duration_ns(self) -> float:
        return self.finished_at_ns - self.started_at_ns


class HealthMonitor:
    """Pod-level failure investigation service."""

    def __init__(
        self,
        engine: Engine,
        pod: Pod,
        mapping_manager: "MappingManager | None" = None,
    ):
        self.engine = engine
        self.pod = pod
        self.mapping_manager = mapping_manager
        self.failed_machine_list: dict[str, ErrorFlags] = {}
        self.invocations = 0

    # -- public API ----------------------------------------------------------

    def investigate(self, nodes: list[NodeId]) -> Event:
        """Investigate ``nodes``; event succeeds with a HealthReport.

        Side effects: reboots unresponsive machines (escalating), marks
        dead ones, updates the failed-machine list and — if a Mapping
        Manager is attached — triggers role relocation.
        """
        self.invocations += 1
        done = self.engine.event(name="health-report")
        self.engine.process(self._investigate_body(nodes, done), name="health.investigate")
        return done

    # -- internals -------------------------------------------------------------

    def _investigate_body(self, nodes: list[NodeId], done: Event) -> collections.abc.Generator:
        started = self.engine.now
        diagnoses = []
        for node in nodes:
            diagnosis = yield from self._diagnose(node)
            diagnoses.append(diagnosis)
        report = HealthReport(
            diagnoses=diagnoses, started_at_ns=started, finished_at_ns=self.engine.now
        )
        for diagnosis in report.failed_machines:
            self.failed_machine_list[diagnosis.machine_id] = diagnosis.flags
        if self.mapping_manager is not None and report.failed_machines:
            yield self.mapping_manager.handle_failures(report)
        done.succeed(report)

    def _diagnose(self, node: NodeId) -> collections.abc.Generator:
        server = self.pod.server_at(node)
        machine_id = server.machine_id
        diagnosis = MachineDiagnosis(machine_id, node, ErrorFlags())

        health = yield from self._query(machine_id)
        if health is None:
            # Escalation ladder: soft reboot -> hard reboot -> manual.
            yield server.soft_reboot()
            diagnosis.reboots_performed += 1
            health = yield from self._query(machine_id)
        if health is None:
            yield server.hard_reboot()
            diagnosis.reboots_performed += 1
            health = yield from self._query(machine_id)
        if health is None:
            server.mark_dead()
            diagnosis.marked_dead = True
            diagnosis.flags.unresponsive = True
            return diagnosis

        diagnosis.raw_health = health
        diagnosis.flags = self._analyze(node, health, diagnosis.reboots_performed)
        return diagnosis

    def _query(self, machine_id: str) -> collections.abc.Generator:
        try:
            health = yield self.pod.ethernet.rpc(machine_id, "health", timeout_ns=5e6)
            return health
        except RpcTimeout:
            return None

    def _analyze(self, node: NodeId, health: dict, reboots: int) -> ErrorFlags:
        link_down = tuple(
            port for port, stats in health["links"].items() if stats["link_down"]
        )
        mismatches = []
        for port_name, seen in health["neighbors"].items():
            from repro.shell.router import Port

            expected_node = self.pod.topology.neighbor(node, Port(port_name))
            expected = self.pod.machine_id(expected_node)
            if seen != expected:
                mismatches.append((port_name, expected, seen))
        dram = health["dram"]
        return ErrorFlags(
            unresponsive=reboots > 0,
            fpga_failed=health["fpga_state"] == "failed",
            pll_unlocked=not health["pll_locked"],
            link_down=link_down,
            neighbor_mismatch=tuple(mismatches),
            dram_calibration_failed=any(d["calibration_failed"] for d in dram),
            dram_uncorrectable=any(d["uncorrectable"] > 0 for d in dram),
            app_error=health["app_error"],
            seu_uncorrected=health["seu"]["uncorrected"] > 0,
            temp_shutdown=health.get("temp_shutdown", False),
        )
