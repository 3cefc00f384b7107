"""DDR3 DRAM controllers with ECC (§2.1, §3.2).

The board carries two dual-rank DDR3-1600 SO-DIMMs that run at
DDR3-1333 with the full 8 GB, or at DDR3-1600 single-rank trading
capacity for bandwidth; the shell runs them at DDR3-1333 as one
unified interface.  SECDED ECC corrects single-bit and detects
double-bit errors; datacenter-scale DRAM failure modes (calibration
failures) feed the Health Monitor's error vector.
"""

from __future__ import annotations

import dataclasses

from repro.hardware.constants import DramSpeed
from repro.hardware.ecc import DecodeStatus, SecDedCodec
from repro.sim import Engine, Event


class DramError(Exception):
    """Raised on out-of-range access or an uncorrectable ECC error."""


@dataclasses.dataclass
class DramHealth:
    """Error counters reported in the health vector (§3.5)."""

    corrected_errors: int = 0
    uncorrectable_errors: int = 0
    calibration_failed: bool = False


class DramController:
    """Timing plus ECC model of the board DRAM.

    The two dual-rank DIMMs run at DDR3-1333 with the full 8 GB, as one
    unified interface, ECC on.  Data contents are modelled sparsely: a
    dict of ECC codewords keyed by word address.  Bulk transfers (queue
    buffers, model tables) use :meth:`transfer` for pure timing.
    """

    SPEED = DramSpeed.DDR3_1333_DUAL_RANK
    CHANNELS = 2  # both controllers as one interface
    ROW_ACTIVATE_NS = 45.0  # tRCD+tRP-ish fixed access overhead
    RANDOM_EFFICIENCY = 0.70
    SEQUENTIAL_EFFICIENCY = 0.95  # streaming bursts (Model Reload, §4.3)

    def __init__(self, engine: Engine, name: str = "dram"):
        self.engine = engine
        self.name = name
        self.health = DramHealth()
        self._codec = SecDedCodec()
        self._words: dict[int, int] = {}  # address -> stored codeword

    @property
    def capacity_words(self) -> int:
        return self.SPEED.capacity_bytes // 8

    # -- word access (functional + ECC) ------------------------------------

    def write_word(self, address: int, data: int) -> None:
        """Store one 64-bit word, ECC-encoded."""
        self._check_address(address)
        self._words[address] = self._codec.encode(data)

    def read_word(self, address: int) -> int:
        """Read one 64-bit word through the ECC decoder: a single-bit
        error in the stored codeword is corrected (and scrubbed back),
        a double-bit one raises."""
        self._check_address(address)
        result = self._codec.decode(self._words.get(address, self._codec.encode(0)))
        if result.status is DecodeStatus.CORRECTED:
            self.health.corrected_errors += 1
            self._words[address] = self._codec.encode(result.data)
        elif result.status is DecodeStatus.UNCORRECTABLE:
            self.health.uncorrectable_errors += 1
            raise DramError(f"{self.name}: uncorrectable ECC error at {address:#x}")
        return result.data

    def _check_address(self, address: int) -> None:
        if not 0 <= address < self.capacity_words:
            raise DramError(f"{self.name}: address {address:#x} out of range")
        if self.health.calibration_failed:
            raise DramError(f"{self.name}: DIMM calibration failed")

    # -- bulk timing ---------------------------------------------------------

    def transfer(self, num_bytes: int) -> Event:
        """Timing-only bulk transfer; returns a completion event."""
        if num_bytes < 0:
            raise DramError(f"negative transfer size {num_bytes}")
        return self.engine.timeout(self.transfer_time_ns(num_bytes), value=num_bytes)

    def transfer_time_ns(self, num_bytes: int, sequential: bool = False) -> float:
        """Closed-form transfer duration used by Model Reload estimates."""
        efficiency = self.SEQUENTIAL_EFFICIENCY if sequential else self.RANDOM_EFFICIENCY
        bandwidth = self.SPEED.peak_bandwidth_bytes_per_ns * self.CHANNELS * efficiency
        return self.ROW_ACTIVATE_NS + num_bytes / bandwidth

    # -- failure injection ------------------------------------------------------

    def fail_calibration(self) -> None:
        """Inject a DIMM calibration failure (health-vector flag)."""
        self.health.calibration_failed = True

    def recalibrate(self) -> None:
        self.health.calibration_failed = False

    def __repr__(self) -> str:
        return f"<DramController {self.name} {self.SPEED.label}>"
