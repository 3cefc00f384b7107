"""QSPI configuration flash (§2.1, Figure 3).

The board carries 32 MB of quad-SPI flash holding FPGA configurations.
The RSU (remote status update) unit in the shell reads and writes it.
Flash writes are slow (tens of seconds for a full image) but happen
off the critical path: the Mapping Manager stages images ahead of time.
"""

from __future__ import annotations

from repro.hardware.bitstream import Bitstream
from repro.sim import Engine, Event

FLASH_BYTES = 32 * 1024 * 1024
FLASH_WRITE_BYTES_PER_NS = 0.003  # ~3 MB/s QSPI program rate
FLASH_READ_BYTES_PER_NS = 0.05  # ~50 MB/s QSPI read rate


class FlashError(Exception):
    """Raised on capacity overflow or reading an absent slot."""


class ConfigFlash:
    """Bitstream storage with two image slots (golden + application).

    Real Catapult keeps a known-good "golden" image so a bad application
    image can never brick the board; we model the same two-slot layout.
    """

    GOLDEN_SLOT = "golden"
    APPLICATION_SLOT = "application"

    def __init__(self, engine: Engine, name: str = "flash"):
        self.engine = engine
        self.name = name
        self._slots: dict[str, Bitstream] = {}
        self.write_count = 0

    def write(self, slot: str, bitstream: Bitstream) -> Event:
        """Program ``bitstream`` into ``slot``; returns completion event.

        Compressed bitstreams are used in practice; we charge the image
        size at QSPI program rate.
        """
        if slot not in (self.GOLDEN_SLOT, self.APPLICATION_SLOT):
            raise FlashError(f"unknown flash slot {slot!r}")
        if bitstream.size_bytes > FLASH_BYTES:
            raise FlashError(
                f"bitstream {bitstream.size_bytes} B exceeds flash {FLASH_BYTES} B"
            )
        duration = bitstream.size_bytes / FLASH_WRITE_BYTES_PER_NS

        def body():
            yield self.engine.timeout(duration)
            self._slots[slot] = bitstream
            self.write_count += 1
            return bitstream

        proc = self.engine.process(body(), name=f"flash.write.{self.name}")
        return proc

    def read(self, slot: str) -> Event:
        """Stream an image out of flash (used during reconfiguration)."""
        if slot not in self._slots:
            raise FlashError(f"flash slot {slot!r} is empty")
        bitstream = self._slots[slot]
        duration = bitstream.size_bytes / FLASH_READ_BYTES_PER_NS
        return self.engine.timeout(duration, value=bitstream)

    def __repr__(self) -> str:
        return f"<ConfigFlash {self.name} slots={sorted(self._slots)}>"
