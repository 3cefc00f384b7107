"""The failures the Health Monitor's error vector can report (§3.5):
server hangs, FPGA hardware faults, PLL unlock, broken links/cable
assemblies, DRAM calibration failures, application hangs, temperature
shutdowns, and uncorrectable SEUs.  Resilience experiments inject
them through :class:`~repro.cluster.failures.ClusterFailureInjector`.
"""

from __future__ import annotations

import enum


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
