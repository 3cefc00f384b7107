"""The kernel driver for the Catapult board (§3.1, §3.4).

User-level services initiate FPGA reconfigurations through a low-level
library call that lands here.  The driver's critical §3.4 duty: before
reconfiguring, it must disable the non-maskable interrupt for the FPGA's
PCIe device — a reconfiguring FPGA looks like a failed device, and an
unmasked NMI destabilizes the host.
"""

from __future__ import annotations

import collections.abc

from repro.fabric.server import Server
from repro.hardware.bitstream import Bitstream
from repro.sim import Event


class FpgaDriver:
    """Per-server driver exposing safe reconfiguration."""

    def __init__(self, server: Server):
        self.server = server
        self.reconfigurations = 0

    def reconfigure(self, bitstream: Bitstream) -> Event:
        """Reconfigure the local FPGA with the §3.4 protocol.

        Sequence: mask the PCIe NMI -> shell-level safe reconfiguration
        (TX-Halt, reload, RX-Halt + retrain) -> unmask.
        """
        server = self.server
        done = server.engine.event(name=f"driver-reconfig:{server.machine_id}")

        def body() -> collections.abc.Generator:
            server.nmi_masked = True
            try:
                finished = server.shell.safe_reconfigure(bitstream)
                try:
                    yield finished
                except Exception as exc:
                    done.fail(exc)
                    return
            finally:
                server.nmi_masked = False
            self.reconfigurations += 1
            done.succeed(bitstream)

        server.engine.process(body(), name=f"driver.{server.machine_id}")
        return done
