"""The host server (§2.1, §2.3).

Each server is a half-width 1U machine: Intel 2-socket EP motherboard
with 12-core Sandy Bridge CPUs, 64 GB DRAM, two SSDs, four HDDs, a
10 Gb NIC — and the Catapult daughtercard on a mezzanine connector.

The server model carries what the experiments need: a core pool (the
CPU contention that shapes the software baseline's tail latency), an
SSD for document/metastream lookup, reboot state machines for the
Health Monitor's escalation ladder, and the crash-on-unmasked-NMI
behaviour that motivates the driver protocol (§3.4).
"""

from __future__ import annotations

import collections.abc
import enum

from repro.hardware.fpga import Fpga, FpgaState
from repro.shell.pcie import HostDmaBuffers
from repro.shell.shell import Shell
from repro.sim import Engine, Event, Resource
from repro.sim.units import SEC


class ServerState(enum.Enum):
    UP = "up"
    CRASHED = "crashed"  # hung/blue-screened; awaiting Health Monitor
    SOFT_REBOOTING = "soft_rebooting"
    HARD_REBOOTING = "hard_rebooting"
    DEAD = "dead"  # flagged for manual service


class CrashSeverity(enum.Enum):
    """How far up the §3.5 reboot ladder recovery requires going."""

    TRANSIENT = "transient"  # a soft reboot fixes it
    NEEDS_HARD_REBOOT = "needs_hard_reboot"  # only a power cycle fixes it
    PERMANENT = "permanent"  # manual service / replacement required


class Server:
    """One ranking-class server with its Catapult board."""

    CORE_COUNT = 12
    SOFT_REBOOT_NS = 60 * SEC
    HARD_REBOOT_NS = 300 * SEC

    def __init__(
        self,
        engine: Engine,
        machine_id: str,
        node_id: tuple,
    ):
        self.engine = engine
        self.machine_id = machine_id
        self.node_id = node_id
        self.state = ServerState.UP
        self.fpga = Fpga(engine, f"{machine_id}.fpga")
        self.buffers = HostDmaBuffers(engine)
        self.shell = Shell(engine, self.fpga, node_id, machine_id, self.buffers)
        self.cpu = Resource(engine, self.CORE_COUNT, name=f"{machine_id}.cpu")
        self.nmi_masked = False
        self.crash_count = 0
        self.crash_severity = CrashSeverity.TRANSIENT
        self.reboot_count = 0
        self.shell.pcie.on_nmi = self._on_pcie_nmi
        self._state_waiters: list[Event] = []

    # -- NMI handling (§3.4) ----------------------------------------------

    def _on_pcie_nmi(self) -> None:
        """A reconfiguring FPGA looks like a failed PCIe device."""
        if not self.nmi_masked and self.state is ServerState.UP:
            self.crash()

    def crash(self, severity: CrashSeverity = CrashSeverity.TRANSIENT) -> None:
        """The machine hangs; a higher-level service will notice (§3.5)."""
        self.state = ServerState.CRASHED
        self.crash_severity = severity
        self.crash_count += 1

    # -- reboot ladder (§3.5) ------------------------------------------------

    @property
    def is_responsive(self) -> bool:
        return self.state is ServerState.UP

    def soft_reboot(self) -> Event:
        """OS restart; the FPGA keeps its configuration."""
        return self._reboot(ServerState.SOFT_REBOOTING, self.SOFT_REBOOT_NS)

    def hard_reboot(self) -> Event:
        """Power cycle; the FPGA loses its configuration SRAM."""
        done = self._reboot(ServerState.HARD_REBOOTING, self.HARD_REBOOT_NS)
        if self.fpga.state is not FpgaState.FAILED:
            self.fpga.bitstream = None
            self.fpga._set_state(FpgaState.UNCONFIGURED)
        return done

    def _reboot(self, state: ServerState, duration_ns: float) -> Event:
        if self.state is ServerState.DEAD:
            raise RuntimeError(f"{self.machine_id} is dead; needs manual service")
        self.state = state
        self.reboot_count += 1
        hard = state is ServerState.HARD_REBOOTING
        done = self.engine.event(name=f"reboot:{self.machine_id}")

        def body():
            yield self.engine.timeout(duration_ns)
            if self.state is not state:
                done.succeed(self.state)  # marked dead meanwhile
                return
            if self.crash_severity is CrashSeverity.PERMANENT:
                self.state = ServerState.CRASHED  # reboot did not help
            elif self.crash_severity is CrashSeverity.NEEDS_HARD_REBOOT and not hard:
                self.state = ServerState.CRASHED  # soft was not enough
            else:
                self.state = ServerState.UP
                self.crash_severity = CrashSeverity.TRANSIENT
            done.succeed(self.state)

        self.engine.process(body(), name=f"reboot.{self.machine_id}")
        return done

    def mark_dead(self) -> None:
        """Flagged for manual service and possible replacement."""
        self.state = ServerState.DEAD

    def replace(self) -> None:
        """Manual service completed (new machine, same slot)."""
        self.state = ServerState.UP
        self.crash_severity = CrashSeverity.TRANSIENT
        self.fpga.repair()

    # -- CPU work ---------------------------------------------------------------

    def run_on_core(self, duration_ns: float) -> collections.abc.Generator:
        """Occupy one core for ``duration_ns`` (generator to yield from)."""
        grant = self.cpu.request()
        yield grant
        try:
            yield self.engine.timeout(duration_ns)
        finally:
            self.cpu.release()

    # -- health RPC (answered over Ethernet) ------------------------------------------

    def health_rpc_handler(self, message: object) -> object | None:
        """The §3.5 health-status call; None when unresponsive."""
        if not self.is_responsive:
            return None
        if message == "health":
            return self.shell.health_snapshot()
        if message == "ping":
            return "pong"
        return None

    def __repr__(self) -> str:
        return f"<Server {self.machine_id} {self.state.value}>"
