"""A synthesis estimator: resource budgets and clock closure for roles.

The paper's Table 1 reports per-stage Logic/RAM/DSP utilization and
clock frequency.  Real synthesis is an FPGA-CAD problem; here we model
it as compositional resource accounting — each architectural component
(a feature state machine, an FFE core, a scorer bank) declares a cost,
and a role is the sum of its parts plus the shell.  Costs are calibrated
so the ranking roles land on Table 1's reported utilizations.
"""

from __future__ import annotations

import dataclasses

from repro.hardware.bitstream import Bitstream, ResourceBudget, shell_budget
from repro.hardware.constants import STRATIX_V_D5, FpgaDevice


class SynthesisError(Exception):
    """Raised when a role cannot fit or close timing on the device."""


@dataclasses.dataclass(frozen=True)
class SynthesisReport:
    """Per-role synthesis outcome, mirroring one column of Table 1."""

    role_name: str
    device: FpgaDevice
    logic_pct: float
    ram_pct: float
    dsp_pct: float
    clock_mhz: float


# Component cost library (calibrated against Table 1).  Units: one
# instance of the named component.
COMPONENT_COSTS: dict[str, ResourceBudget] = {
    # Feature extraction: one of the 43 feature state machines, with its
    # share of the stream-processing FSM and feature-gathering network.
    "fe.state_machine": ResourceBudget(alms=1_400, m20k_blocks=12, dsp_blocks=4),
    "fe.stream_processor": ResourceBudget(alms=12_000, m20k_blocks=120, dsp_blocks=20),
    "fe.gathering_network": ResourceBudget(alms=16_000, m20k_blocks=160, dsp_blocks=0),
    # FFE: one multithreaded core; one complex block per 6-core cluster.
    "ffe.core": ResourceBudget(alms=1_500, m20k_blocks=8, dsp_blocks=6),
    "ffe.complex_block": ResourceBudget(alms=1_800, m20k_blocks=20, dsp_blocks=10),
    "ffe.feature_store": ResourceBudget(alms=200, m20k_blocks=16, dsp_blocks=0),
    # Compression stage: mostly RAM for dictionaries plus light logic.
    "compress.engine": ResourceBudget(alms=0, m20k_blocks=1_090, dsp_blocks=0),
    # Scoring: model-table banks dominate RAM; modest evaluation logic.
    "score.tree_bank": ResourceBudget(alms=880, m20k_blocks=39, dsp_blocks=0),
    "score.evaluator": ResourceBudget(alms=6_000, m20k_blocks=20, dsp_blocks=4),
    # Spare: pass-through role (queue + forwarding only).
    "spare.passthrough": ResourceBudget(alms=0, m20k_blocks=100, dsp_blocks=0),
}


def role_budget(components: dict[str, int]) -> ResourceBudget:
    """Sum the costs of ``{component_name: count}``."""
    total = ResourceBudget()
    for name, count in components.items():
        if name not in COMPONENT_COSTS:
            raise SynthesisError(f"unknown component {name!r}")
        if count < 0:
            raise SynthesisError(f"negative count for {name!r}")
        total = total + COMPONENT_COSTS[name].scaled(count)
    return total


def estimate_clock(role_name: str, budget: ResourceBudget, device: FpgaDevice) -> float:
    """Achievable role clock: congestion degrades routing/timing closure.

    An empty device closes near the 200 MHz macropipeline target; timing
    degrades with the dominant congestion source (logic or RAM routing)
    plus a DSP-column penalty, matching the spread of clocks in Table 1
    (125–180 MHz).
    """
    full = (budget + shell_budget(device)).utilization(device)
    congestion = max(full["logic"], full["ram"] * 0.55)
    clock = 205.0 - 75.0 * congestion - 40.0 * full["dsp"]
    return max(clock, 50.0)


def synthesize(
    role_name: str,
    components: dict[str, int],
    device: FpgaDevice = STRATIX_V_D5,
    clock_override_mhz: float | None = None,
) -> tuple[Bitstream, SynthesisReport]:
    """'Synthesize' a role: check fit, estimate clock, emit a bitstream.

    Raises :class:`SynthesisError` if the role plus shell exceeds the
    device capacity — the condition that forces a service to span
    multiple FPGAs (the motivation for the fabric, §1).
    """
    budget = role_budget(components)
    total = budget + shell_budget(device)
    if not total.fits(device):
        util = total.utilization(device)
        raise SynthesisError(
            f"role {role_name!r} does not fit {device.name}: "
            f"logic {util['logic']:.0%}, ram {util['ram']:.0%}, "
            f"dsp {util['dsp']:.0%}"
        )
    clock = clock_override_mhz or estimate_clock(role_name, budget, device)
    util = total.utilization(device)
    report = SynthesisReport(
        role_name=role_name,
        device=device,
        logic_pct=util["logic"] * 100.0,
        ram_pct=util["ram"] * 100.0,
        dsp_pct=util["dsp"] * 100.0,
        clock_mhz=clock,
    )
    bitstream = Bitstream(role_name=role_name, role_budget=budget, clock_mhz=clock)
    return bitstream, report
