"""Thermal model and temperature sensors (§2.1).

The FPGA sits in the exhaust of both CPUs (Figure 1c), so its inlet air
can reach 68 °C; the industrial-grade part is rated to a 100 °C junction
temperature.  A temperature shutdown is one of the flags in the Health
Monitor's error vector (§3.5).
"""

from __future__ import annotations

import dataclasses

from repro.hardware.constants import BOARD_LIMITS


class TemperatureShutdown(Exception):
    """Raised when the junction temperature exceeds the part rating."""


@dataclasses.dataclass
class ThermalModel:
    """Steady-state junction temperature: T_j = T_inlet + R_theta * P.

    ``theta_ja_c_per_w`` is the effective junction-to-air resistance with
    the server's front-to-back airflow across the mezzanine card.
    """

    inlet_temp_c: float = 45.0
    theta_ja_c_per_w: float = 1.3
    shutdown_tripped: bool = False

    def junction_temp_c(self, power_w: float) -> float:
        """Junction temperature at the given power draw."""
        if power_w < 0:
            raise ValueError(f"negative power {power_w}")
        return self.inlet_temp_c + self.theta_ja_c_per_w * power_w

    def check(self, power_w: float) -> float:
        """Return T_j, tripping the shutdown flag if over the rating."""
        temp = self.junction_temp_c(power_w)
        if temp > BOARD_LIMITS.max_junction_temp_c:
            self.shutdown_tripped = True
            raise TemperatureShutdown(
                f"junction {temp:.1f}C exceeds "
                f"{BOARD_LIMITS.max_junction_temp_c:.0f}C rating"
            )
        return temp

    def clear(self) -> None:
        self.shutdown_tripped = False
