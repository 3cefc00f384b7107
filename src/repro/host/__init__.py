"""Host-side software: the FPGA driver and the user-level slot API (§3.1).

Applications never touch PCIe or DMA details directly; they take slot
ids from the server's shared allocator, send through a
:class:`SlotLease` per thread, and, for deployment, use the driver's
reconfiguration entry point (:class:`FpgaDriver`).
"""

from repro.host.driver import FpgaDriver
from repro.host.slots import SlotLease

__all__ = ["FpgaDriver", "SlotLease"]
