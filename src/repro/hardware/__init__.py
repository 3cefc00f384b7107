"""Hardware models: FPGA, board memory, codecs, power and sensors.

Models the Catapult daughtercard of Section 2.1: an Altera Stratix V D5
FPGA, 8 GB of DDR3 with ECC, 32 MB of QSPI configuration flash, and the
board-level power/thermal envelope.
"""

from repro.hardware.constants import STRATIX_V_D5, BoardLimits, DramSpeed
from repro.hardware.ecc import (
    Crc32,
    DecodeStatus,
    SecDedCodec,
    SecDedResult,
)
from repro.hardware.bitstream import Bitstream, ResourceBudget, ShellVersion
from repro.hardware.synthesis import SynthesisReport, synthesize
from repro.hardware.fpga import Fpga, FpgaState, ReconfigError
from repro.hardware.dram import DramController, DramError
from repro.hardware.flash import ConfigFlash, FlashError
from repro.hardware.power import PowerModel
from repro.hardware.sensors import ThermalModel, TemperatureShutdown

__all__ = [
    "Bitstream",
    "BoardLimits",
    "ConfigFlash",
    "Crc32",
    "DecodeStatus",
    "DramController",
    "DramError",
    "DramSpeed",
    "FlashError",
    "Fpga",
    "FpgaState",
    "PowerModel",
    "ReconfigError",
    "ResourceBudget",
    "SecDedCodec",
    "SecDedResult",
    "ShellVersion",
    "STRATIX_V_D5",
    "SynthesisReport",
    "synthesize",
    "TemperatureShutdown",
    "ThermalModel",
]
