"""Board power model (§2.1, §5).

The daughtercard must draw under 25 W (PCIe budget), stays under 20 W
in normal operation, and a "power virus" bitstream — maximum area and
activity factor — measures 22.7 W.  We model power as static leakage
plus dynamic CV²f-style terms per resource class, calibrated to those
three anchors.
"""

from __future__ import annotations

import dataclasses

from repro.hardware.bitstream import ResourceBudget, shell_budget
from repro.hardware.constants import BOARD_LIMITS, STRATIX_V_D5


@dataclasses.dataclass(frozen=True)
class PowerReport:
    """Decomposed board power draw in watts."""

    static_w: float
    dynamic_w: float
    dram_w: float
    misc_w: float

    @property
    def total_w(self) -> float:
        return self.static_w + self.dynamic_w + self.dram_w + self.misc_w

    @property
    def within_pcie_budget(self) -> bool:
        return self.total_w <= BOARD_LIMITS.pcie_power_budget_w


class PowerModel:
    """Estimate board power for a role at an activity factor.

    Calibration anchors:
    * power virus (full device, toggle 1.0, 250 MHz) -> 22.7 W;
    * ranking roles at realistic toggle rates       -> <20 W.
    """

    STATIC_W = 6.0  # FPGA + board leakage and support rails
    DRAM_W = 3.0  # two SO-DIMMs active
    MISC_W = 1.0  # oscillator, flash, EMI, regulators loss
    VIRUS_CLOCK_MHZ = 250.0

    # Dynamic power coefficients per resource, per MHz, at toggle 1.0.
    # Calibrated so the full-device power virus lands on 22.7 W (§5).
    ALM_W_PER_MHZ = 1.70e-7
    M20K_W_PER_MHZ = 5.0e-6
    DSP_W_PER_MHZ = 7.4e-6

    def estimate(
        self,
        budget: ResourceBudget,
        clock_mhz: float,
        toggle_rate: float = 0.25,
        include_shell: bool = True,
    ) -> PowerReport:
        """Power for a role's ``budget`` at ``clock_mhz`` and toggle rate."""
        if not 0.0 <= toggle_rate <= 1.0:
            raise ValueError(f"toggle rate must be in [0,1], got {toggle_rate}")
        total = budget + shell_budget(STRATIX_V_D5) if include_shell else budget
        dynamic = toggle_rate * clock_mhz * (
            total.alms * self.ALM_W_PER_MHZ
            + total.m20k_blocks * self.M20K_W_PER_MHZ
            + total.dsp_blocks * self.DSP_W_PER_MHZ
        )
        return PowerReport(
            static_w=self.STATIC_W,
            dynamic_w=dynamic,
            dram_w=self.DRAM_W,
            misc_w=self.MISC_W,
        )

    def power_virus(self) -> PowerReport:
        """The §5 experiment: max out area and activity factor."""
        device = STRATIX_V_D5
        full_device = ResourceBudget(
            alms=device.alms, m20k_blocks=device.m20k_blocks, dsp_blocks=device.dsp_blocks
        )
        return self.estimate(
            full_device, clock_mhz=self.VIRUS_CLOCK_MHZ, toggle_rate=1.0, include_shell=False
        )
