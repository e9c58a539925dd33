"""Static channel-feasibility predictions, cross-checked with runs."""

import pytest

from repro.core.levels import ChannelLocation
from repro.soc.config import (
    PRESETS,
    amd_zen2_like,
    cannon_lake_i3_8121u,
    coffee_lake_i7_9700k,
    haswell_i7_4770k,
    sandy_bridge_i7_2600k,
    preset,
    skylake_sp_xeon_8160,
)
from repro.soc.feasibility import analyze

#: ``analyze(preset).level_tp_us`` at each preset's base frequency, bit
#: for bit: the static analysis reads the same operating-point table and
#: VID quantisation as the simulator, and must not drift from them.
PINNED_LEVEL_TP_US = {
    "haswell": {"128b_Light": 3.077777777777719,
                "128b_Heavy": 4.4666666666667005,
                "256b_Light": 7.24444444444442,
                "256b_Heavy": 11.411111111111122},
    "coffee_lake": {"128b_Light": 5.500000000000092,
                    "128b_Heavy": 7.50000000000005,
                    "256b_Light": 13.5000000000001,
                    "256b_Heavy": 17.500000000000014},
    "cannon_lake": {"128b_Heavy": 5.5000000000000036,
                    "256b_Light": 7.499999999999961,
                    "256b_Heavy": 9.500000000000007,
                    "512b_Heavy": 17.500000000000014},
    "sandy_bridge": {"128b_Light": 6.999999999999893,
                     "128b_Heavy": 12.000000000000009,
                     "256b_Light": 19.49999999999985,
                     "256b_Heavy": 26.99999999999991},
    "skylake_sp": {"128b_Heavy": 3.4999999999999574,
                   "256b_Light": 5.5000000000000036,
                   "256b_Heavy": 7.499999999999961,
                   "512b_Heavy": 11.499999999999964},
    "amd_zen2": {"128b_Light": 0.09999999999999894,
                 "128b_Heavy": 0.12500000000000064,
                 "256b_Light": 0.15000000000000008,
                 "256b_Heavy": 0.19999999999999904},
}


@pytest.mark.parametrize("name", PRESETS)
def test_level_tps_pinned_bit_for_bit(name):
    assert analyze(preset(name)).level_tp_us == PINNED_LEVEL_TP_US[name]


class TestIntelPartsFeasible:
    @pytest.mark.parametrize("factory", [
        cannon_lake_i3_8121u, coffee_lake_i7_9700k, haswell_i7_4770k,
        sandy_bridge_i7_2600k, skylake_sp_xeon_8160,
    ])
    def test_same_thread_feasible_on_every_intel_part(self, factory):
        report = analyze(factory())
        verdict = report.verdict(ChannelLocation.SAME_THREAD)
        assert verdict.feasible, verdict.reasons

    @pytest.mark.parametrize("factory", [
        cannon_lake_i3_8121u, coffee_lake_i7_9700k, haswell_i7_4770k,
        sandy_bridge_i7_2600k, skylake_sp_xeon_8160,
    ])
    def test_cross_core_feasible_on_every_intel_part(self, factory):
        report = analyze(factory())
        assert report.verdict(ChannelLocation.ACROSS_CORES).feasible

    def test_smt_infeasible_without_smt(self):
        report = analyze(coffee_lake_i7_9700k())
        verdict = report.verdict(ChannelLocation.ACROSS_SMT)
        assert not verdict.feasible
        assert any("SMT" in reason for reason in verdict.reasons)

    def test_smt_feasible_with_smt(self):
        report = analyze(cannon_lake_i3_8121u())
        assert report.verdict(ChannelLocation.ACROSS_SMT).feasible


class TestAmdLikePartInfeasible:
    def test_cross_core_blocked_by_per_core_rails(self):
        report = analyze(amd_zen2_like())
        verdict = report.verdict(ChannelLocation.ACROSS_CORES)
        assert not verdict.feasible
        assert any("per-core" in reason for reason in verdict.reasons)

    def test_fast_ldo_collapses_every_ladder(self):
        report = analyze(amd_zen2_like())
        for location in ChannelLocation:
            verdict = report.verdict(location)
            assert not verdict.feasible, location
        assert not report.any_feasible()


class TestGeometry:
    def test_level_tps_monotone(self):
        report = analyze(cannon_lake_i3_8121u())
        ladder = [report.level_tp_us[label] for label in
                  ("128b_Heavy", "256b_Light", "256b_Heavy", "512b_Heavy")]
        assert all(b > a for a, b in zip(ladder, ladder[1:]))

    def test_gap_reported_in_tsc_cycles(self):
        report = analyze(cannon_lake_i3_8121u())
        verdict = report.verdict(ChannelLocation.SAME_THREAD)
        assert verdict.min_level_gap_tsc > 2000.0

    def test_prediction_matches_simulation(self):
        # The point of the analyzer: agree with real channel runs.
        from repro import System
        from repro.core import IccCoresCovert
        from repro.errors import CalibrationError

        feasible = analyze(cannon_lake_i3_8121u()).verdict(
            ChannelLocation.ACROSS_CORES).feasible
        assert feasible
        report = IccCoresCovert(System(cannon_lake_i3_8121u())).transfer(b"\x77")
        assert report.ber == 0.0

        infeasible = analyze(amd_zen2_like()).verdict(
            ChannelLocation.ACROSS_CORES).feasible
        assert not infeasible
        with pytest.raises(CalibrationError):
            IccCoresCovert(System(amd_zen2_like())).calibrate()

    def test_unknown_location_rejected(self):
        report = analyze(cannon_lake_i3_8121u())
        with pytest.raises(KeyError):
            report.verdict("nowhere")
