"""Experiment runners: each figure's shape claims, at reduced scale."""

import numpy as np
import pytest

from repro.analysis import experiments as ex
from repro.errors import ConfigError
from repro.isa import IClass


@pytest.mark.parametrize("sweep, kwargs", [
    (ex.fig8_throttling, {"trials": 0}),
    (ex.fig8_throttling, {"trials": -1}),
    (ex.fig14_noise_sensitivity, {"trials": 0}),
    (ex.fig13_level_distribution, {"symbols_per_level": 0}),
], ids=["fig8-trials0", "fig8-trials-1", "fig14-trials0", "fig13-symbols0"])
def test_sweeps_reject_non_positive_counts(sweep, kwargs):
    with pytest.raises(ConfigError, match="must be >= 1"):
        sweep(**kwargs)


@pytest.mark.parametrize("sweep, kwargs", [
    (ex.resilience_sweep, {"intensities": (-1.0,)}),
    (ex.resilience_sweep, {"intensities": (float("nan"),)}),
    (ex.resilience_sweep, {"intensities": (float("inf"),)}),
    (ex.fig14_noise_sensitivity, {"event_rates": (float("nan"),)}),
    (ex.fig14_noise_sensitivity, {"event_rates": (float("inf"),)}),
    (ex.fig14_noise_sensitivity, {"phi_rates": (float("nan"),)}),
    (ex.fig14_noise_sensitivity, {"phi_rates": (float("inf"),)}),
], ids=["resilience-neg", "resilience-nan", "resilience-inf",
        "fig14-event-nan", "fig14-event-inf", "fig14-phi-nan",
        "fig14-phi-inf"])
def test_sweeps_reject_bad_coordinates(sweep, kwargs):
    with pytest.raises(ConfigError, match="must be finite and >= 0"):
        sweep(**kwargs)


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return ex.fig6_voltage_steps(phase_scale_us=200.0)

    def test_per_core_steps_in_measured_range(self, result):
        # Paper: ~8 mV then ~9 mV (core 1 then core 0).
        assert 5.0 < result.step_core1_mv < 12.0
        assert 5.0 < result.step_core0_mv < 12.0

    def test_voltage_returns_to_baseline(self, result):
        assert abs(result.return_mv) < 1.0

    def test_frequency_flat_at_2ghz(self, result):
        # Fifth observation of Fig. 6: frequency unaffected at 2 GHz.
        assert result.freq_ghz_start == pytest.approx(2.0)
        assert result.freq_ghz_end == pytest.approx(2.0)

    def test_baseline_near_788mv(self, result):
        assert result.vcc_start_mv == pytest.approx(788.0, abs=8.0)

    def test_calculix_voltage_varies_with_phases(self, result):
        lo, hi = result.calculix_vcc.minmax()
        assert (hi - lo) * 1000 > 5.0  # phases move the rail
        assert result.calculix_phases > 2


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return ex.fig7_limit_protection(phase_us=300.0)

    def _point(self, result, system, freq, workload):
        for p in result.points:
            if (p.system == system and p.freq_req_ghz == freq
                    and p.workload == workload):
                return p
        raise AssertionError("missing operating point")

    def test_desktop_49_avx2_vcc_violation(self, result):
        p = self._point(result, "Coffee Lake", 4.9, "AVX2")
        assert p.vcc_violation and not p.icc_violation
        assert p.freq_realized_ghz < 4.9

    def test_desktop_48_avx2_fits(self, result):
        p = self._point(result, "Coffee Lake", 4.8, "AVX2")
        assert not p.vcc_violation and not p.icc_violation

    def test_mobile_31_avx2_icc_violation(self, result):
        p = self._point(result, "Cannon Lake", 3.1, "AVX2")
        assert p.icc_violation and not p.vcc_violation
        assert p.freq_realized_ghz < 3.1

    def test_mobile_22_avx2_fits(self, result):
        p = self._point(result, "Cannon Lake", 2.2, "AVX2")
        assert not p.icc_violation
        assert p.freq_realized_ghz == pytest.approx(2.2)

    def test_nonavx_never_violates(self, result):
        for p in result.points:
            if p.workload == "Non-AVX":
                assert not p.vcc_violation and not p.icc_violation

    def test_timeline_frequency_steps_down_through_phases(self, result):
        freqs = [f for _, f in result.timeline_freq]
        assert min(freqs) < 2.0  # AVX512 phase forces a deep drop
        assert freqs[0] == pytest.approx(3.1)

    def test_temperature_never_near_tjmax(self, result):
        # Key Conclusion 2: the drops are not thermal.
        assert result.temp_max_c < result.tj_max_c - 30.0


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return ex.fig8_throttling(trials=8)

    def test_mbvr_parts_in_12_15us_band(self, result):
        for part in ("Coffee Lake", "Cannon Lake"):
            median = float(np.median(result.tp_us_by_part[part]))
            assert 10.0 <= median <= 16.0, part

    def test_haswell_shorter_than_mbvr_parts(self, result):
        hsw = float(np.median(result.tp_us_by_part["Haswell"]))
        cfl = float(np.median(result.tp_us_by_part["Coffee Lake"]))
        assert hsw < cfl
        assert 5.0 <= hsw <= 10.0

    def test_coffee_lake_first_iteration_pays_wake(self, result):
        deltas = result.iteration_deltas_ns["Coffee Lake"]
        assert 8.0 <= deltas[0] <= 15.0  # the paper's 8-15 ns
        assert deltas[1] == pytest.approx(0.0, abs=1.0)

    def test_haswell_iterations_flat(self, result):
        deltas = result.iteration_deltas_ns["Haswell"]
        assert all(abs(d) < 1.0 for d in deltas)


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return ex.fig9_timeline()

    def test_didt_case_ramps_voltage_without_freq_change(self, result):
        lo, hi = result.didt_vcc.minmax()
        assert hi > lo  # guardband ramp visible

    def test_gate_wake_is_nanoseconds_tp_is_microseconds(self, result):
        # Key Conclusion 3 in one assertion.
        assert result.didt_wake_ns <= 20.0
        assert result.didt_tp_us > 5.0
        assert result.didt_wake_ns / (result.didt_tp_us * 1000) < 0.005

    def test_limit_case_drops_frequency(self, result):
        freqs = [f for _, f in result.limit_freq]
        assert min(freqs) < 3.1


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return ex.fig10_multilevel(freqs=(1.0, 1.4), iterations=50)

    def test_tp_monotone_in_intensity(self, result):
        # Monotone up to VID-quantisation ties (the paper, too, observes
        # only ~5 distinct levels across the 7 classes) and the ~12 ns
        # power-gate wake offset.
        for freq in (1.0, 1.4):
            tps = [result.sweep[(c.label, freq, 1)] for c in sorted(IClass)]
            assert all(b >= a - 0.05 for a, b in zip(tps, tps[1:]))
            assert tps[-1] > tps[0]

    def test_tp_grows_with_frequency(self, result):
        for iclass in (IClass.HEAVY_256, IClass.HEAVY_512):
            assert (result.sweep[(iclass.label, 1.4, 1)]
                    >= result.sweep[(iclass.label, 1.0, 1)])

    def test_two_cores_longer_than_one(self, result):
        for iclass in (IClass.HEAVY_256, IClass.HEAVY_512):
            assert (result.sweep[(iclass.label, 1.0, 2)]
                    > result.sweep[(iclass.label, 1.0, 1)])

    def test_paper_anchor_256heavy_at_1ghz(self, result):
        # Paper: ~5 us on one core, ~9 us on two cores.
        one = result.sweep[("256b_Heavy", 1.0, 1)]
        two = result.sweep[("256b_Heavy", 1.0, 2)]
        assert 3.5 <= one <= 7.0
        assert 7.0 <= two <= 11.0

    def test_preceded_tp_decreases_with_preceding_intensity(self, result):
        tps = [result.preceded[c.label] for c in sorted(IClass)]
        assert all(b <= a + 0.05 for a, b in zip(tps, tps[1:]))
        assert tps[-1] < tps[0]

    def test_at_least_five_levels(self, result):
        # Figure 10(b): L1..L5.
        assert len(set(result.levels.values())) >= 5


class TestFig11:
    def test_throttled_three_quarters_unthrottled_near_zero(self):
        result = ex.fig11_idq_signature(iterations=60)
        assert np.mean(result.throttled) == pytest.approx(0.75, abs=0.03)
        assert np.mean(result.unthrottled) < 0.05


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        return ex.fig12_throughput()

    def test_all_channels_error_free(self, result):
        for name, ber in result.ber.items():
            assert ber == 0.0, name

    def test_icc_thread_twice_netspectre(self, result):
        assert result.ratio("IccThreadCovert", "NetSpectre") == pytest.approx(
            2.0, rel=0.3)

    def test_ratio_vs_turbocc_near_47x(self, result):
        assert result.ratio("IccSMTcovert", "TurboCC") == pytest.approx(
            47.0, rel=0.35)

    def test_ratio_vs_dfscovert_near_145x(self, result):
        assert result.ratio("IccSMTcovert", "DFScovert") == pytest.approx(
            145.0, rel=0.35)

    def test_ratio_vs_powert_above_24x(self, result):
        assert result.ratio("IccSMTcovert", "POWERT") >= 20.0

    def test_ichannels_throughput_kbps_scale(self, result):
        for name in ("IccThreadCovert", "IccSMTcovert", "IccCoresCovert"):
            assert result.throughput_bps[name] > 2000.0


class TestFig13:
    def test_four_levels_with_2k_cycle_gaps(self):
        result = ex.fig13_level_distribution(symbols_per_level=6)
        assert len(result.samples_by_symbol) == 4
        assert all(result.samples_by_symbol[s] for s in range(4))
        # Paper: adjacent ranges separated by > 2K cycles.
        assert result.min_gap_cycles > 2000.0
        assert len(result.thresholds) == 3


class TestFig14:
    @pytest.fixture(scope="class")
    def result(self):
        return ex.fig14_noise_sensitivity(
            payload=b"\x5a\x0f\xc3\x3c",
            event_rates=(500.0, 10000.0),
            phi_rates=(10.0, 10000.0),
            trials=2,
        )

    def test_ber_low_under_system_events(self, result):
        # Paper: BER low even in a highly noisy system (Fig. 14a).
        for rate, ber in result.ber_vs_event_rate.items():
            assert ber < 0.15, f"rate {rate}"

    def test_ber_rises_with_phi_rate(self, result):
        assert (result.ber_vs_phi_rate[10000.0]
                >= result.ber_vs_phi_rate[10.0])

    def test_sevenzip_ber_below_paper_bound(self, result):
        # Paper: < 0.07 with 7-zip running concurrently.
        assert result.sevenzip_ber < 0.07


class TestTables:
    def test_table2_rows(self):
        fig12 = ex.fig12_throughput()
        rows = ex.table2_comparison(fig12)
        by_name = {r.proposal: r for r in rows}
        ichannels = by_name["IChannels"]
        assert ichannels.same_core and ichannels.cross_smt and ichannels.cross_core
        assert ichannels.turbo_independent and ichannels.root_cause_identified
        netspectre = by_name["NetSpectre"]
        assert netspectre.same_core and not netspectre.cross_core
        turbocc = by_name["TurboCC"]
        assert turbocc.cross_core and not turbocc.turbo_independent
        assert ichannels.bw_bps > netspectre.bw_bps > turbocc.bw_bps


class TestSideChannelExperiment:
    def test_inference_accuracy_and_key_recovery(self):
        result = ex.side_channel_inference(rounds=2)
        for location, accuracy in result.accuracy.items():
            assert accuracy >= 0.8, location
        for location, bits in result.key_bits_recovered.items():
            assert bits >= result.key_bits_total - 1, location

    def test_confusion_matrix_diagonal_dominates(self):
        result = ex.side_channel_inference(rounds=2)
        for location, matrix in result.confusion.items():
            diagonal = sum(n for (a, b), n in matrix.items() if a == b)
            total = sum(matrix.values())
            assert diagonal / total >= 0.8, location
