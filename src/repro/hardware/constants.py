"""Named constants from the paper and the Stratix V handbook.

Every number used by the timing, area and power models lives here with a
pointer to where the paper (or the Altera Stratix V handbook the paper
cites) states it.
"""

from __future__ import annotations

import dataclasses
import enum


@dataclasses.dataclass(frozen=True)
class FpgaDevice:
    """Capacity of one FPGA device."""

    name: str
    alms: int  # adaptive logic modules ("Logic" in Table 1)
    m20k_blocks: int  # 20 Kb embedded RAM blocks ("RAM" in Table 1)
    dsp_blocks: int  # 18x18 DSP blocks ("DSP" in Table 1)
    m20k_bits: int = 20 * 1024  # capacity of one M20K block

    @property
    def total_bram_bits(self) -> int:
        return self.m20k_blocks * self.m20k_bits


# Altera Stratix V D5 (5SGSD5), the part on the Catapult board (§2.1).
# 172,600 ALMs, 2,014 M20K blocks (§4.3 gives the M20K count), 1,590
# 18x18 DSPs per the Stratix V handbook [3].
STRATIX_V_D5 = FpgaDevice(
    name="Stratix V D5",
    alms=172_600,
    m20k_blocks=2_014,
    dsp_blocks=1_590,
)

# Prototype device from §2: Xilinx Virtex 6 SX315T (six per daughtercard).
VIRTEX_6_SX315T = FpgaDevice(
    name="Virtex 6 SX315T",
    alms=49_200,  # slices, used only for the prototype comparison
    m20k_blocks=704,
    dsp_blocks=1_344,
)


@dataclasses.dataclass(frozen=True)
class BoardLimits:
    """Power/thermal budget of the daughtercard (§2.1)."""

    pcie_power_budget_w: float = 25.0  # PCIe bus alone powers the card
    normal_power_limit_w: float = 20.0  # thermal requirement in operation
    power_virus_w: float = 22.7  # measured max (§5)
    max_inlet_temp_c: float = 68.0  # CPU exhaust heats the FPGA
    max_junction_temp_c: float = 100.0  # industrial-grade part rating
    tco_limit_fraction: float = 0.30  # ≤30 % added TCO
    server_power_limit_fraction: float = 0.10  # ≤10 % added server power


BOARD_LIMITS = BoardLimits()


class DramSpeed(enum.Enum):
    """DDR3 operating points of the two SO-DIMMs (§2.1, §3.2).

    Dual-rank DIMMs run at DDR3-1333 (667 MHz) with the full 8 GB;
    single-rank operation trades capacity for DDR3-1600 speeds.
    """

    DDR3_1333_DUAL_RANK = ("ddr3-1333", 667.0, 8 * 2**30)
    DDR3_1600_SINGLE_RANK = ("ddr3-1600", 800.0, 4 * 2**30)

    def __init__(self, label: str, clock_mhz: float, capacity_bytes: int):
        self.label = label
        self.clock_mhz = clock_mhz
        self.capacity_bytes = capacity_bytes

    @property
    def peak_bandwidth_bytes_per_ns(self) -> float:
        """Peak transfer rate: DDR moves 8 bytes per channel per beat.

        DDR3-1333 -> 1333 MT/s * 8 B = 10.66 GB/s per DIMM.
        """
        transfers_per_ns = 2.0 * self.clock_mhz / 1_000.0
        return transfers_per_ns * 8.0


# --- Inter-FPGA network (§2.2, §3.2) ------------------------------------

SL3_LANE_GBPS = 10.0  # each high-speed signal
SL3_LANES_PER_LINK = 2  # pairs of signals per neighbour
SL3_PEAK_GBPS = SL3_LANE_GBPS * SL3_LANES_PER_LINK  # 20 Gb/s bidirectional
SL3_ECC_BANDWIDTH_TAX = 0.20  # ECC costs 20 % of peak bandwidth (§3.2)
SL3_HOP_LATENCY_NS = 400.0  # "sub-microsecond latency" per hop (§2.2)
SL3_FLIT_BYTES = 32  # 256-bit flits on the SL3 cores
SL3_RETRAIN_NS = 2_000_000.0  # link retrain after reconfiguration

# --- PCIe interface (§3.1) ------------------------------------------------

PCIE_SLOT_COUNT = 64
PCIE_SLOT_BYTES = 64 * 1024
PCIE_DMA_LATENCY_TARGET_NS = 10_000.0  # <10 us for <=16 KB transfers
PCIE_DMA_SETUP_NS = 1_200.0  # fixed per-transfer overhead
PCIE_GBPS = 32.0  # x8 gen2-equivalent effective payload rate

# --- Reconfiguration (§4.3) ----------------------------------------------

FULL_RECONFIG_NS = 1.0e9  # "milliseconds to seconds"; 1 s default
PARTIAL_RECONFIG_NS = 0.1e9
MODEL_RELOAD_WORST_NS = 250_000.0  # <=250 us (all 2,014 M20Ks from DRAM)

# --- Macropipeline (§4.2) -------------------------------------------------

MACROPIPELINE_STAGE_BUDGET_NS = 8_000.0  # 8 us per stage
MACROPIPELINE_TARGET_MHZ = 200.0  # 1,600 cycles per stage budget

# --- Shell (§3.2) ----------------------------------------------------------

SHELL_AREA_FRACTION = 0.23  # the shell consumes 23 % of each FPGA
SEU_SCRUB_PERIOD_NS = 100e6  # the scrubber's pass period, 100 ms

# --- Documents (§4.1) -------------------------------------------------------

DOC_TRUNCATE_BYTES = 64 * 1024  # compressed documents truncated to 64 KB
DOC_MEAN_BYTES = 6.5 * 1024  # average compressed size (Fig. 4)
DOC_P99_BYTES = 53 * 1024  # 99th percentile size (Fig. 4)
SCORE_BYTES = 4  # single float score per request

# --- Torus (§2.2, §2.3) ------------------------------------------------------

TORUS_WIDTH = 6
TORUS_HEIGHT = 8
SERVERS_PER_POD = TORUS_WIDTH * TORUS_HEIGHT  # 48
PODS_DEPLOYED = 34
RACKS_DEPLOYED = 17
SERVERS_DEPLOYED = SERVERS_PER_POD * PODS_DEPLOYED  # 1,632
LINKS_DEPLOYED = 2 * SERVERS_DEPLOYED  # 3,264 (two links per node in 2-D torus)

# Deployment-time failure statistics (§2.3).
CARD_FAILURE_RATE = 7 / 1_632  # ~0.4 % of cards
LINK_FAILURE_RATE = 1 / 3_264  # ~0.03 % of cable-assembly links

# --- Ranking ring (§4) --------------------------------------------------------

RING_SIZE = 8  # seven active stages plus one spare
FE_STATE_MACHINES = 43
MAX_DYNAMIC_FEATURES = 4_484
FFE_CORE_COUNT = 60
FFE_THREADS_PER_CORE = 4
FFE_CORES_PER_CLUSTER = 6
FDR_CAPACITY = 512  # flight-data-recorder circular buffer entries
