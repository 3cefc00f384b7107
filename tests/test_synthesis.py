"""Tests for the synthesis estimator and role component library."""

import pytest

from repro.hardware.bitstream import shell_budget
from repro.hardware.constants import STRATIX_V_D5
from repro.hardware.synthesis import (
    COMPONENT_COSTS,
    SynthesisError,
    estimate_clock,
    role_budget,
    synthesize,
)
from repro.ranking.pipeline import ROLE_COMPONENTS, ranking_bitstreams


def test_role_budget_sums_components():
    budget = role_budget({"ffe.core": 2, "ffe.complex_block": 1})
    core = COMPONENT_COSTS["ffe.core"]
    block = COMPONENT_COSTS["ffe.complex_block"]
    assert budget.alms == 2 * core.alms + block.alms
    assert budget.m20k_blocks == 2 * core.m20k_blocks + block.m20k_blocks


def test_unknown_component_rejected():
    with pytest.raises(SynthesisError):
        role_budget({"warp.core": 1})
    with pytest.raises(SynthesisError):
        role_budget({"ffe.core": -1})


def test_synthesize_emits_fitting_bitstream():
    bitstream, report = synthesize("tiny", {"spare.passthrough": 1})
    assert bitstream.fits(STRATIX_V_D5)
    assert report.logic_pct >= 23.0 - 0.5  # shell floor
    assert report.clock_mhz > 100


def test_synthesize_rejects_oversized_role():
    with pytest.raises(SynthesisError):
        synthesize("huge", {"ffe.core": 200})  # 200 cores cannot fit


def test_clock_degrades_with_congestion():
    light = role_budget({"spare.passthrough": 1})
    heavy = role_budget({"ffe.core": 60, "ffe.complex_block": 10})
    assert estimate_clock("light", light, STRATIX_V_D5) > estimate_clock(
        "heavy", heavy, STRATIX_V_D5
    )


def test_shell_budget_is_23_percent_logic():
    shell = shell_budget(STRATIX_V_D5)
    assert shell.alms / STRATIX_V_D5.alms == pytest.approx(0.23, abs=0.002)


def test_all_ranking_roles_fit_with_headroom():
    for role, (bitstream, report) in ranking_bitstreams().items():
        assert bitstream.fits(STRATIX_V_D5), role
        assert report.ram_pct <= 95, role  # no role maxes the device
        assert 100 <= report.clock_mhz <= 200, role


def test_fe_has_43_state_machines_in_component_list():
    assert ROLE_COMPONENTS["fe"]["fe.state_machine"] == 43


def test_ffe_role_has_60_cores_10_clusters():
    assert ROLE_COMPONENTS["ffe0"]["ffe.core"] == 60
    assert ROLE_COMPONENTS["ffe0"]["ffe.complex_block"] == 10  # 60 / 6
