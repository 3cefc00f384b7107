"""The FPGA device model: configuration state and reconfiguration.

Captures the behaviours the paper's resilience machinery exists for:

* full reconfiguration takes milliseconds-to-seconds (§4.3), during
  which the device reads a bitstream from flash and **emits garbage on
  its serial links** unless TX-Halt was asserted (§3.4);
* during reconfiguration the device disappears from PCIe, raising a
  non-maskable interrupt on the host unless the driver masked it;
* configuration SRAM is subject to single-event upsets, which the SEU
  scrubber repairs (§3.2).  The scrubber passes on a 100 ms period
  counted from the hosting shell's creation, but only a pass that has
  an upset to repair is simulated: a correctable upset schedules one,
  and it re-arms while upsets stay pending on an unconfigured part.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import enum
import math

from repro.hardware.bitstream import Bitstream, ShellVersion
from repro.hardware.constants import (
    FULL_RECONFIG_NS,
    PARTIAL_RECONFIG_NS,
    SEU_SCRUB_PERIOD_NS,
    STRATIX_V_D5,
)
from repro.sim import Engine, Event


class ReconfigError(Exception):
    """Raised for invalid reconfiguration requests."""


class FpgaState(enum.Enum):
    UNCONFIGURED = "unconfigured"
    RECONFIGURING = "reconfiguring"
    CONFIGURED = "configured"
    FAILED = "failed"  # hardware fault; needs manual service


@dataclasses.dataclass
class SeuCounters:
    """Soft-error bookkeeping exposed to the Health Monitor."""

    upsets_injected: int = 0
    upsets_scrubbed: int = 0
    uncorrected: int = 0


class Fpga:
    """One FPGA device with configuration and health state.

    The device does not execute gates; roles are Python objects attached
    by the shell once configuration completes.  What this class models
    is *state*: what is loaded, whether the part is mid-reconfiguration,
    and the error counters management software reads.
    """

    # Every board carries the same part and shell (§2.1, §3.2).
    device = STRATIX_V_D5
    shell_version = ShellVersion()

    def __init__(self, engine: Engine, name: str):
        self.engine = engine
        self.name = name
        self.state = FpgaState.UNCONFIGURED
        self.bitstream: Bitstream | None = None
        self.seu = SeuCounters()
        self.pll_locked = True
        self.temp_shutdown = False  # part shut itself down over-temperature
        self.reconfig_count = 0
        self.partial_reconfig_count = 0
        self.role_reloading = False  # partial reconfiguration in flight
        # Instant the hosting shell's scrubber started (None: no shell,
        # no scrubber) and whether one of its passes is scheduled.
        self.scrub_anchor_ns: float | None = None
        self._scrub_armed = False
        self._observers: list[collections.abc.Callable[[Fpga, FpgaState], None]] = []

    # -- observers -------------------------------------------------------

    def on_state_change(self, callback: collections.abc.Callable[["Fpga", FpgaState], None]) -> None:
        """Register for state transitions (used by PCIe/link models)."""
        self._observers.append(callback)

    def _set_state(self, state: FpgaState) -> None:
        self.state = state
        for callback in self._observers:
            callback(self, state)

    # -- configuration -----------------------------------------------------

    @property
    def configured_role(self) -> str | None:
        return self.bitstream.role_name if self.bitstream else None

    def reconfigure(self, bitstream: Bitstream) -> Event:
        """Begin loading ``bitstream``; returns a completion event.

        The caller (the driver) is responsible for the §3.4 protocol:
        masking the PCIe NMI and asserting TX-Halt *before* calling.
        """
        if self.state == FpgaState.FAILED:
            raise ReconfigError(f"{self.name}: device marked failed")
        if self.state == FpgaState.RECONFIGURING:
            raise ReconfigError(f"{self.name}: reconfiguration already in progress")
        if not bitstream.fits(self.device):
            raise ReconfigError(
                f"{self.name}: {bitstream} does not fit {self.device.name}"
            )
        done = self.engine.event(name=f"reconfig:{self.name}")
        self.engine.process(self._reconfigure_body(bitstream, done), name=f"rcfg.{self.name}")
        return done

    def _reconfigure_body(self, bitstream: Bitstream, done: Event) -> collections.abc.Generator:
        self._set_state(FpgaState.RECONFIGURING)
        self.bitstream = None
        yield self.engine.timeout(FULL_RECONFIG_NS)
        if self.state == FpgaState.FAILED:
            # The part died mid-flight (failure injection); stay dead.
            done.fail(ReconfigError(f"{self.name}: failed during reconfiguration"))
            return
        self.bitstream = bitstream
        self.reconfig_count += 1
        # Cleared configuration: any SEU damage is wiped by the reload,
        # and the scrubber's next pass counts it repaired.
        if self.seu.uncorrected:
            self.seu.uncorrected = 0
            self._arm_scrub()
        self._set_state(FpgaState.CONFIGURED)
        done.succeed(bitstream)

    def partial_reconfigure(
        self, bitstream: Bitstream, reload_ns: float | None = None
    ) -> Event:
        """Swap only the role region; the shell stays live (§3.2).

        The paper's future-work path: "partial reconfiguration would
        allow for dynamic switching between roles while the shell
        remains active — even routing inter-FPGA traffic while a
        reconfiguration is taking place."  The device never leaves
        CONFIGURED, so PCIe stays on the bus (no NMI) and the router
        keeps forwarding.

        ``reload_ns`` overrides the region-write time: a bitstream
        cache hit skips the flash read and pays only the model-reload
        class cost (~250 µs) instead of the full partial write.
        """
        if self.state is not FpgaState.CONFIGURED:
            raise ReconfigError(
                f"{self.name}: partial reconfiguration needs a live shell "
                f"(state {self.state.value})"
            )
        if self.role_reloading:
            raise ReconfigError(f"{self.name}: role region already reloading")
        if not bitstream.shell_version.compatible_with(self.shell_version):
            raise ReconfigError(
                f"{self.name}: {bitstream} targets an incompatible shell"
            )
        if not bitstream.fits(self.device):
            raise ReconfigError(
                f"{self.name}: {bitstream} does not fit {self.device.name}"
            )
        done = self.engine.event(name=f"partial:{self.name}")
        self.role_reloading = True
        duration_ns = reload_ns if reload_ns is not None else PARTIAL_RECONFIG_NS

        def body():
            yield self.engine.timeout(duration_ns)
            if self.state is FpgaState.FAILED:
                self.role_reloading = False
                done.fail(ReconfigError(f"{self.name}: failed during partial reconfig"))
                return
            self.bitstream = bitstream
            self.partial_reconfig_count += 1
            self.role_reloading = False
            done.succeed(bitstream)

        self.engine.process(body(), name=f"prcfg.{self.name}")
        return done

    # -- faults -----------------------------------------------------------

    def inject_seu(self, correctable: bool = True) -> None:
        """Inject a configuration-memory soft error (cosmic ray)."""
        self.seu.upsets_injected += 1
        if correctable:
            self._arm_scrub()
        else:
            self.seu.uncorrected += 1

    def _arm_scrub(self) -> None:
        """Schedule the scrubber's pass at its first period boundary not
        before now, unless one is already scheduled."""
        if self.scrub_anchor_ns is None or self._scrub_armed:
            return
        self._scrub_armed = True
        period, anchor, now = SEU_SCRUB_PERIOD_NS, self.scrub_anchor_ns, self.engine.now
        self._schedule_scrub(anchor + math.ceil((now - anchor) / period) * period - now)

    def _schedule_scrub(self, delay_ns: float) -> None:
        # Daemon work, as the pass of a free-running scrubber would be:
        # a pending pass does not keep a bare run() alive.
        scrub = self.engine.timeout(delay_ns)
        self.engine.mark_daemon(scrub)
        scrub.add_callback(self._scrub_pass)

    def _scrub_pass(self, _event: Event) -> None:
        """One scheduled pass: repairs pending upsets on a configured
        part, and otherwise comes back a period later while any wait."""
        if self.state is FpgaState.CONFIGURED:
            self._scrub_armed = False
            self.scrub()
        elif self._pending_upsets > 0:
            self._schedule_scrub(SEU_SCRUB_PERIOD_NS)
        else:
            self._scrub_armed = False

    def scrub(self) -> int:
        """One scrubber pass: repairs all pending correctable upsets.

        Returns the number of upsets repaired.
        """
        pending = max(self._pending_upsets, 0)
        self.seu.upsets_scrubbed += pending
        return pending

    @property
    def _pending_upsets(self) -> int:
        return self.seu.upsets_injected - self.seu.upsets_scrubbed - self.seu.uncorrected

    def mark_failed(self) -> None:
        """Hardware fault: the part needs manual service (§3.5)."""
        self._set_state(FpgaState.FAILED)
        self.pll_locked = False

    def repair(self) -> None:
        """Manual service/replacement completed; back to unconfigured."""
        self.seu = SeuCounters()
        self.pll_locked = True
        self.temp_shutdown = False
        self.bitstream = None
        self._set_state(FpgaState.UNCONFIGURED)

    @property
    def is_operational(self) -> bool:
        return self.state == FpgaState.CONFIGURED and self.pll_locked

    def __repr__(self) -> str:
        return f"<Fpga {self.name} {self.state.value} role={self.configured_role}>"
