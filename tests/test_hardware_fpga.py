"""Tests for the FPGA device, bitstreams, flash, DRAM, power, thermal."""

import pytest

from repro.hardware import (
    Bitstream,
    ConfigFlash,
    DramController,
    DramError,
    FlashError,
    Fpga,
    FpgaState,
    PowerModel,
    ReconfigError,
    ResourceBudget,
    ShellVersion,
    STRATIX_V_D5,
    TemperatureShutdown,
    ThermalModel,
)
from repro.hardware.constants import BOARD_LIMITS, DramSpeed, MODEL_RELOAD_WORST_NS
from repro.hardware.flash import FLASH_BYTES
from repro.sim import Engine, SEC


def small_bitstream(name="role", alms=10_000):
    return Bitstream(
        role_name=name,
        role_budget=ResourceBudget(alms=alms, m20k_blocks=100, dsp_blocks=10),
        clock_mhz=175.0,
    )


# --- FPGA -------------------------------------------------------------------


def test_fpga_starts_unconfigured():
    eng = Engine()
    fpga = Fpga(eng, "f0")
    assert fpga.state is FpgaState.UNCONFIGURED
    assert fpga.configured_role is None
    assert not fpga.is_operational


def test_reconfigure_completes_after_delay():
    eng = Engine()
    fpga = Fpga(eng, "f0")
    done = fpga.reconfigure(small_bitstream("fe"))
    eng.run_until(done)
    assert eng.now == pytest.approx(1.0 * SEC)
    assert fpga.state is FpgaState.CONFIGURED
    assert fpga.configured_role == "fe"
    assert fpga.is_operational


def test_reconfigure_while_reconfiguring_rejected():
    eng = Engine()
    fpga = Fpga(eng, "f0")
    fpga.reconfigure(small_bitstream())
    eng.run(until=1.0)  # enter RECONFIGURING
    with pytest.raises(ReconfigError):
        fpga.reconfigure(small_bitstream())


def test_reconfigure_oversized_bitstream_rejected():
    eng = Engine()
    fpga = Fpga(eng, "f0")
    huge = Bitstream(
        role_name="huge",
        role_budget=ResourceBudget(alms=STRATIX_V_D5.alms * 2),
        clock_mhz=100.0,
    )
    with pytest.raises(ReconfigError):
        fpga.reconfigure(huge)


def test_failed_fpga_rejects_reconfig():
    eng = Engine()
    fpga = Fpga(eng, "f0")
    fpga.mark_failed()
    with pytest.raises(ReconfigError):
        fpga.reconfigure(small_bitstream())


def test_failure_during_reconfig_fails_event():
    eng = Engine()
    fpga = Fpga(eng, "f0")
    done = fpga.reconfigure(small_bitstream())

    def saboteur(eng, fpga):
        yield eng.timeout(0.5 * SEC)
        fpga.mark_failed()

    eng.process(saboteur(eng, fpga))

    def waiter(eng, done):
        try:
            yield done
            return "ok"
        except ReconfigError:
            return "failed"

    proc = eng.process(waiter(eng, done))
    eng.run()
    assert proc.value == "failed"
    assert fpga.state is FpgaState.FAILED


def test_seu_scrub_cycle():
    eng = Engine()
    fpga = Fpga(eng, "f0")
    fpga.inject_seu()
    fpga.inject_seu()
    assert fpga.scrub() == 2
    assert fpga.scrub() == 0
    fpga.inject_seu(correctable=False)
    assert fpga.scrub() == 0
    assert fpga.seu.uncorrected == 1


def test_reconfig_clears_uncorrected_seu():
    eng = Engine()
    fpga = Fpga(eng, "f0")
    fpga.inject_seu(correctable=False)
    done = fpga.reconfigure(small_bitstream())
    eng.run_until(done)
    assert fpga.seu.uncorrected == 0


def test_state_observer_notified():
    eng = Engine()
    fpga = Fpga(eng, "f0")
    transitions = []
    fpga.on_state_change(lambda f, s: transitions.append(s))
    done = fpga.reconfigure(small_bitstream())
    eng.run_until(done)
    assert transitions == [FpgaState.RECONFIGURING, FpgaState.CONFIGURED]


def test_repair_resets_device():
    eng = Engine()
    fpga = Fpga(eng, "f0")
    fpga.mark_failed()
    fpga.repair()
    assert fpga.state is FpgaState.UNCONFIGURED
    assert fpga.pll_locked


# --- Shell version ------------------------------------------------------------


def test_shell_version_compatibility():
    assert ShellVersion(1, 0).compatible_with(ShellVersion(1, 5))
    assert not ShellVersion(1, 0).compatible_with(ShellVersion(2, 0))


# --- Bitstream / budgets --------------------------------------------------------


def test_budget_addition_and_fit():
    a = ResourceBudget(alms=100, m20k_blocks=10, dsp_blocks=1)
    b = ResourceBudget(alms=200, m20k_blocks=20, dsp_blocks=2)
    total = a + b
    assert (total.alms, total.m20k_blocks, total.dsp_blocks) == (300, 30, 3)
    assert total.fits(STRATIX_V_D5)


def test_utilization_fractions():
    budget = ResourceBudget(alms=STRATIX_V_D5.alms // 2)
    util = budget.utilization(STRATIX_V_D5)
    assert util["logic"] == pytest.approx(0.5, abs=0.01)
    assert util["ram"] == 0.0


# --- Flash ---------------------------------------------------------------------


def test_flash_write_then_read_roundtrip():
    eng = Engine()
    flash = ConfigFlash(eng)
    bs = small_bitstream("golden-image")
    done = flash.write(ConfigFlash.APPLICATION_SLOT, bs)
    eng.run_until(done)
    read = flash.read(ConfigFlash.APPLICATION_SLOT)
    value = eng.run_until(read)
    assert value is bs


def test_flash_read_empty_slot_raises():
    eng = Engine()
    flash = ConfigFlash(eng)
    with pytest.raises(FlashError):
        flash.read(ConfigFlash.GOLDEN_SLOT)


def test_flash_unknown_slot_rejected():
    eng = Engine()
    flash = ConfigFlash(eng)
    with pytest.raises(FlashError):
        flash.write("bogus", small_bitstream())


def test_flash_capacity_enforced():
    eng = Engine()
    flash = ConfigFlash(eng)
    huge = Bitstream(
        role_name="x",
        role_budget=ResourceBudget(),
        clock_mhz=100.0,
        size_bytes=FLASH_BYTES + 1,
    )
    with pytest.raises(FlashError):
        flash.write(ConfigFlash.APPLICATION_SLOT, huge)


def test_flash_write_takes_time():
    eng = Engine()
    flash = ConfigFlash(eng)
    done = flash.write(ConfigFlash.APPLICATION_SLOT, small_bitstream())
    eng.run_until(done)
    assert eng.now > 1.0 * SEC  # ~21 MB at ~3 MB/s is several seconds


# --- DRAM ----------------------------------------------------------------------


def test_dram_word_roundtrip():
    eng = Engine()
    dram = DramController(eng)
    dram.write_word(0x10, 0xFEEDFACE12345678)
    assert dram.read_word(0x10) == 0xFEEDFACE12345678


def test_dram_unwritten_reads_zero():
    eng = Engine()
    dram = DramController(eng)
    assert dram.read_word(0x999) == 0


def test_dram_out_of_range_raises():
    eng = Engine()
    dram = DramController(eng)
    with pytest.raises(DramError):
        dram.read_word(dram.capacity_words)
    with pytest.raises(DramError):
        dram.write_word(-1, 0)


def test_dram_soft_errors_corrected_by_ecc():
    eng = Engine(seed=5)
    dram = DramController(eng)
    dram.write_word(0, 0xABCD)
    for bit in range(20):
        dram._words[0] ^= 1 << bit  # a single-bit upset in the codeword
        assert dram.read_word(0) == 0xABCD
    assert dram.health.corrected_errors == 20


def test_dram_double_bit_error_detected_not_corrected():
    eng = Engine(seed=5)
    dram = DramController(eng)
    dram.write_word(0, 0xABCD)
    dram._words[0] ^= 0b11  # two flipped bits
    with pytest.raises(DramError):
        dram.read_word(0)
    assert dram.health.uncorrectable_errors == 1


def test_dram_calibration_failure_blocks_access():
    eng = Engine()
    dram = DramController(eng)
    dram.fail_calibration()
    with pytest.raises(DramError):
        dram.read_word(0)
    dram.recalibrate()
    dram.read_word(0)


def test_dram_speed_tradeoff():
    # Dual-rank: full capacity at lower clock; single-rank: faster, half size.
    dual = DramSpeed.DDR3_1333_DUAL_RANK
    single = DramSpeed.DDR3_1600_SINGLE_RANK
    assert dual.capacity_bytes == 2 * single.capacity_bytes
    assert single.peak_bandwidth_bytes_per_ns > dual.peak_bandwidth_bytes_per_ns


def test_dram_transfer_timing_scales():
    eng = Engine()
    dram = DramController(eng)
    t_small = dram.transfer_time_ns(1024)
    t_big = dram.transfer_time_ns(1024 * 1024)
    assert t_big > t_small
    # The full 2,014-M20K model reload from DRAM must be ~<=250 us (§4.3).
    all_m20k_bytes = 2014 * 20 * 1024 // 8
    assert dram.transfer_time_ns(all_m20k_bytes) <= MODEL_RELOAD_WORST_NS * 2.2


# --- Power / thermal ---------------------------------------------------------------


def test_power_virus_matches_paper():
    report = PowerModel().power_virus()
    assert report.total_w == pytest.approx(BOARD_LIMITS.power_virus_w, rel=0.05)
    assert report.within_pcie_budget


def test_normal_operation_under_20w():
    budget = ResourceBudget(alms=120_000, m20k_blocks=1_000, dsp_blocks=400)
    report = PowerModel().estimate(budget, clock_mhz=166.0, toggle_rate=0.25)
    assert report.total_w < BOARD_LIMITS.normal_power_limit_w


def test_power_toggle_rate_validation():
    with pytest.raises(ValueError):
        PowerModel().estimate(ResourceBudget(), 100.0, toggle_rate=1.5)


def test_thermal_junction_temperature():
    thermal = ThermalModel(inlet_temp_c=45.0, theta_ja_c_per_w=1.3)
    assert thermal.junction_temp_c(20.0) == pytest.approx(71.0)


def test_thermal_shutdown_trips():
    thermal = ThermalModel(inlet_temp_c=68.0, theta_ja_c_per_w=1.3)
    with pytest.raises(TemperatureShutdown):
        thermal.check(30.0)  # 68 + 39 > 100
    assert thermal.shutdown_tripped
    thermal.clear()
    assert not thermal.shutdown_tripped


def test_thermal_normal_power_safe_at_worst_inlet():
    # The 20 W normal limit must be thermally safe even at 68 C inlet.
    thermal = ThermalModel(inlet_temp_c=68.0, theta_ja_c_per_w=1.3)
    assert thermal.check(BOARD_LIMITS.normal_power_limit_w) < 100.0


def test_thermal_rejects_negative_power():
    with pytest.raises(ValueError):
        ThermalModel().junction_temp_c(-1.0)
