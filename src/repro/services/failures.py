"""Failure injection for resilience experiments (§3.5).

Everything the Health Monitor's error vector can report is injectable:
server hangs, FPGA hardware faults, PLL unlock, broken links/cable
assemblies, DRAM calibration failures, application hangs, temperature
shutdowns, and uncorrectable SEUs.
"""

from __future__ import annotations

import enum

from repro.fabric.pod import Pod
from repro.fabric.torus import NodeId


class FailureKind(enum.Enum):
    SERVER_HANG = "server_hang"  # machine stops answering (reboot fixes)
    FPGA_HARDWARE_FAULT = "fpga_hardware_fault"  # needs manual service
    PLL_UNLOCK = "pll_unlock"
    LINK_FAILURE = "link_failure"  # one cable dark
    CABLE_ASSEMBLY_FAILURE = "cable_assembly_failure"  # whole shell dark
    DRAM_CALIBRATION = "dram_calibration"
    APP_HANG = "app_hang"  # role wedged; reconfigure-in-place fixes
    TEMP_SHUTDOWN = "temp_shutdown"
    SEU_UNCORRECTABLE = "seu_uncorrectable"


class FailureInjector:
    """Applies failures to a pod; used by tests and benchmarks."""

    def __init__(self, pod: Pod):
        self.pod = pod
        self.injected: list[tuple[FailureKind, NodeId]] = []

    def inject(self, kind: FailureKind, node: NodeId, port=None) -> None:
        """Inject ``kind`` at ``node`` (``port`` for link failures)."""
        server = self.pod.server_at(node)
        if kind is FailureKind.SERVER_HANG:
            server.crash()
        elif kind is FailureKind.FPGA_HARDWARE_FAULT:
            server.fpga.mark_failed()
        elif kind is FailureKind.PLL_UNLOCK:
            server.fpga.pll_locked = False
        elif kind is FailureKind.LINK_FAILURE:
            if port is None:
                raise ValueError("LINK_FAILURE needs a port")
            endpoint = server.shell.endpoints[port]
            if endpoint.link is None:
                raise ValueError(f"no link on {node} port {port}")
            endpoint.link.break_cable()
        elif kind is FailureKind.CABLE_ASSEMBLY_FAILURE:
            assembly = self._assembly_for(node)
            assembly.fail()
        elif kind is FailureKind.DRAM_CALIBRATION:
            server.shell.dram[0].fail_calibration()
        elif kind is FailureKind.APP_HANG:
            if server.shell.role is None:
                raise ValueError(f"no role attached at {node}")
            server.shell.role.app_error = True
        elif kind is FailureKind.TEMP_SHUTDOWN:
            server.fpga.temp_shutdown = True  # part shut itself down
            server.fpga.mark_failed()
        elif kind is FailureKind.SEU_UNCORRECTABLE:
            server.fpga.inject_seu(correctable=False)
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown failure kind {kind}")
        self.injected.append((kind, node))
        fluid = self.pod.engine.fluid
        if fluid is not None:
            # A failure is the canonical transient: hold the simulation
            # discrete through the dip so the rotation/reconcile/shed
            # dynamics are computed exactly, never analytically.
            fluid.note_transient(f"failure:{kind.name}")

    def _assembly_for(self, node: NodeId):
        column = f"col{node[0]}"
        for name, assembly in self.pod.assemblies.items():
            if name.endswith(column):
                return assembly
        raise ValueError(f"no assembly for column of {node}")
