"""Shell composition: one per FPGA board (§3.2, Figure 3).

Wires together the PCIe core + DMA engine, two DRAM controllers, four
SL3 link endpoints, the crossbar router, the RSU reconfiguration path
(config flash), the SEU scrubber and the Flight Data Recorder, and
hosts the application role.  The shell moves all the data: each
network port's router queue feeds its endpoint's
:class:`~repro.shell.sl3.Sl3Transmitter`, the PCIe port's queue the
output DMA, and the ROLE port's queue the hosted role's
:class:`~repro.shell.role.RolePort`, which drives the role's
``handle``.  The router tells each consumer of every put, so no process
drains a queue and none runs per role.

The shell also implements the §3.4 safe-reconfiguration sequence:

1. driver masks the PCIe non-maskable interrupt (host side);
2. TX-Halt is asserted on every link so neighbours ignore the garbage
   a reconfiguring part emits;
3. the FPGA reloads from flash;
4. links retrain; the FPGA comes up with RX-Halt enabled, discarding
   all traffic until the Mapping Manager releases it.
"""

from __future__ import annotations

import collections.abc
import dataclasses

from repro.hardware.bitstream import Bitstream
from repro.hardware.constants import FULL_RECONFIG_NS, SL3_RETRAIN_NS
from repro.hardware.dram import DramController
from repro.hardware.flash import ConfigFlash
from repro.hardware.fpga import Fpga, FpgaState
from repro.shell.fdr import FlightDataRecorder
from repro.shell.messages import NodeId, Packet
from repro.shell.pcie import HostDmaBuffers, PcieCore
from repro.shell.role import Role
from repro.shell.router import NETWORK_PORTS, Port, Router
from repro.shell.sl3 import Sl3Config, Sl3Endpoint
from repro.sim import Engine, Event


@dataclasses.dataclass(frozen=True)
class ShellConfig:
    """Per-board shell parameters."""

    sl3: Sl3Config = dataclasses.field(default_factory=Sl3Config)
    router_queue_capacity: int = 64


class Shell:
    """The reusable logic partition of one Catapult board."""

    def __init__(
        self,
        engine: Engine,
        fpga: Fpga,
        node_id: NodeId,
        machine_id: str,
        buffers: HostDmaBuffers | None = None,
        config: ShellConfig | None = None,
    ):
        self.engine = engine
        self.fpga = fpga
        self.node_id = node_id
        self.machine_id = machine_id
        self.config = config or ShellConfig()
        self.fdr = FlightDataRecorder()
        self.router = Router(
            engine, node_id, fdr=self.fdr, queue_capacity=self.config.router_queue_capacity
        )
        self.buffers = buffers or HostDmaBuffers(engine)
        self.pcie = PcieCore(engine, self.router, self.buffers)
        self.dram = (
            DramController(engine, f"{machine_id}.dram0"),
            DramController(engine, f"{machine_id}.dram1"),
        )
        self.flash = ConfigFlash(engine, name=f"{machine_id}.flash")
        self.endpoints: dict[Port, Sl3Endpoint] = {}
        self.role: Role | None = None
        self.tx_halt_asserted = False
        fpga.on_state_change(self._on_fpga_state)
        fpga.scrub_anchor_ns = engine.now  # the SEU scrubber's period starts here
        self.fdr.record_power_on("pll_lock", fpga.pll_locked)

    # -- wiring (done by the fabric) ---------------------------------------------

    def create_endpoint(self, port: Port) -> Sl3Endpoint:
        """Create the SL3 endpoint for ``port``; the fabric links pairs."""
        if port not in NETWORK_PORTS:
            raise ValueError(f"{port} is not a network port")
        endpoint = Sl3Endpoint(
            self.engine, f"{self.machine_id}.{port.value}", self.config.sl3
        )
        endpoint.deliver = lambda packet: self.router.submit(packet, port)
        endpoint.advertised_id = self.machine_id  # exchanged at link training
        self.endpoints[port] = endpoint
        endpoint.transmitter.halted = lambda: self.tx_halt_asserted
        self.router.attach_transmitter(port, endpoint.transmitter)
        self.fdr.record_power_on(f"sl3_{port.value}_lock", endpoint.locked)
        return endpoint

    # -- role hosting ---------------------------------------------------------------

    def attach_role(self, role: Role) -> None:
        """Host ``role``, replacing (and detaching) any previous role."""
        if self.role is not None:
            self.role.detach()
        self.role = role
        role.attach(self)

    def send_from_role(self, packet: Packet) -> Event:
        """Role -> router entry point; returns an event to yield."""
        put = self.router.submit(packet, Port.ROLE)
        if put is None:
            return self.engine.finished  # dropped: no route
        return put

    # -- neighbour identity (miswiring detection, §3.5) -------------------------------

    def neighbor_id(self, port: Port) -> str | None:
        """Machine ID the peer advertised at link training, if reachable."""
        endpoint = self.endpoints.get(port)
        if endpoint is None or endpoint.link is None or endpoint.link.broken:
            return None
        return getattr(endpoint.peer, "advertised_id", None)

    # -- reconfiguration (§3.4) ----------------------------------------------------------

    def safe_reconfigure(self, bitstream: Bitstream) -> Event:
        """The full safety protocol; returns a completion event.

        The *driver* must have masked the PCIe NMI first; this method
        handles the fabric side (TX-Halt, RX-Halt, retraining).
        """
        done = self.engine.event(name=f"safe-reconfig:{self.machine_id}")
        self.engine.process(self._safe_reconfigure_body(bitstream, done))
        return done

    def _safe_reconfigure_body(self, bitstream: Bitstream, done: Event) -> collections.abc.Generator:
        # 1. Tell every neighbour to ignore us.
        self.tx_halt_asserted = True
        for endpoint in self.endpoints.values():
            yield endpoint.assert_tx_halt()
        # 2. Reload the device.
        reconfig = self.fpga.reconfigure(bitstream)
        try:
            yield reconfig
        except Exception as exc:  # device failed mid-reconfig
            done.fail(exc)
            return
        # 3. Come up with RX Halt enabled; retrain links.  Completion is
        # only signalled once the links are re-established — traffic
        # sent into a still-training link would be silently dropped.
        for endpoint in self.endpoints.values():
            endpoint.rx_halt = True
            if endpoint.link is not None:
                endpoint.link.retrain(endpoint)
        if self.endpoints:
            yield self.engine.timeout(SL3_RETRAIN_NS)
        self.tx_halt_asserted = False
        if self.role is not None:
            self.role.reset()
        done.succeed(bitstream)

    def partial_reconfigure(
        self, bitstream: Bitstream, reload_ns: float | None = None
    ) -> Event:
        """Swap the role region while the shell keeps running (§3.2).

        The paper's future-work mode: no PCIe drop (no NMI, no driver
        masking), no TX/RX-Halt — the router keeps forwarding
        inter-FPGA traffic throughout.  Only this node's *role* is
        offline during the (much shorter) reload.  ``reload_ns``
        shortens the region write further for bitstream-cache hits.
        """
        done = self.engine.event(name=f"partial-reconfig:{self.machine_id}")
        started = self.fpga.partial_reconfigure(bitstream, reload_ns=reload_ns)

        def body() -> collections.abc.Generator:
            try:
                yield started
            except Exception as exc:
                done.fail(exc)
                return
            if self.role is not None:
                self.role.reset()
            done.succeed(bitstream)

        self.engine.process(body(), name=f"prcfg.{self.machine_id}")
        return done

    def unsafe_reconfigure(self, bitstream: Bitstream) -> Event:
        """Reconfigure WITHOUT the protocol: neighbours see garbage.

        Models the §3.4 hazard — used by tests and the failure-handling
        benchmarks to show why TX/RX-Halt exists.
        """
        for endpoint in self.endpoints.values():
            if endpoint.link is not None:
                endpoint.link.start_garbage(endpoint, duration_ns=FULL_RECONFIG_NS)
        return self.fpga.reconfigure(bitstream)

    def release_rx_halt(self) -> None:
        """Mapping Manager: all pipeline FPGAs configured; accept traffic."""
        for endpoint in self.endpoints.values():
            endpoint.release_rx_halt()

    # -- device state ------------------------------------------------------------------------

    def _on_fpga_state(self, fpga: Fpga, state: FpgaState) -> None:
        if state is FpgaState.RECONFIGURING:
            self.pcie.device_down()
        elif state is FpgaState.CONFIGURED:
            self.pcie.device_restored()

    # -- health reporting (consumed by the Health Monitor) --------------------------------------

    def health_snapshot(self) -> dict[str, object]:
        """The §3.5 error vector, as reported during a health check."""
        link_errors = {
            port.value: {
                "dropped_crc": endpoint.stats.dropped_crc,
                "corrected_flits": endpoint.stats.corrected_flits,
                "link_down": bool(endpoint.link and endpoint.link.broken),
            }
            for port, endpoint in self.endpoints.items()
        }
        return {
            "machine_id": self.machine_id,
            "fpga_state": self.fpga.state.value,
            "pll_locked": self.fpga.pll_locked,
            "temp_shutdown": self.fpga.temp_shutdown,
            "app_error": bool(self.role and self.role.app_error),
            "role_corrupted": bool(self.role and self.role.corrupted),
            "dram": [
                {
                    "corrected": controller.health.corrected_errors,
                    "uncorrectable": controller.health.uncorrectable_errors,
                    "calibration_failed": controller.health.calibration_failed,
                }
                for controller in self.dram
            ],
            "links": link_errors,
            "neighbors": {
                port.value: self.neighbor_id(port) for port in self.endpoints
            },
            "seu": dataclasses.asdict(self.fpga.seu),
            "fdr_events": len(self.fdr),
        }

    def __repr__(self) -> str:
        return f"<Shell {self.machine_id} node={self.node_id}>"
