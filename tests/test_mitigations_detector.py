"""Throttle-pattern anomaly detection."""

import pytest

from repro import System
from repro.core import IccCoresCovert, IccThreadCovert
from repro.errors import ConfigError
from repro.isa.workload import calculix_like_trace
from repro.measure.trace import StepTrace
from repro.mitigations.detector import ThrottleAnomalyDetector
from repro.soc.config import cannon_lake_i3_8121u
from repro.soc.noise import attach_trace
from repro.units import ms_to_ns


class TestEpisodeExtraction:
    def test_rising_edges_only(self):
        trace = StepTrace("t")
        for t, v in [(0.0, 0), (10.0, 1), (20.0, 0), (30.0, 1), (40.0, 0)]:
            trace.record(t, v)
        detector = ThrottleAnomalyDetector()
        assert detector.episode_starts(trace, 0.0, 100.0) == [10.0, 30.0]

    def test_window_respected(self):
        trace = StepTrace("t")
        for t, v in [(0.0, 0), (10.0, 1), (20.0, 0), (30.0, 1), (40.0, 0)]:
            trace.record(t, v)
        detector = ThrottleAnomalyDetector()
        assert detector.episode_starts(trace, 25.0, 100.0) == [30.0]

    def test_validation(self):
        with pytest.raises(ConfigError):
            ThrottleAnomalyDetector(min_episodes=2)
        with pytest.raises(ConfigError):
            ThrottleAnomalyDetector(periodicity_threshold=0.0)
        with pytest.raises(ConfigError):
            ThrottleAnomalyDetector(bin_ns=0.0)
        trace = StepTrace("t")
        with pytest.raises(ConfigError):
            ThrottleAnomalyDetector().analyze_trace(0, trace, 10.0, 10.0)


class TestSyntheticPatterns:
    def _train(self, intervals):
        trace = StepTrace("t")
        t = 0.0
        trace.record(t, 0)
        for gap in intervals:
            t += gap
            trace.record(t, 1)
            trace.record(t + 1000.0, 0)
        return trace, t + 2000.0

    def test_metronomic_train_flagged(self):
        trace, end = self._train([750_000.0] * 10)
        report = ThrottleAnomalyDetector().analyze_trace(0, trace, 0.0, end)
        assert report.flagged
        assert report.interval_cv < 0.01
        assert report.periodicity > 0.8

    def test_irregular_train_not_flagged(self):
        trace, end = self._train([100_000.0, 900_000.0, 300_000.0,
                                  1_500_000.0, 200_000.0, 700_000.0,
                                  50_000.0, 1_200_000.0])
        report = ThrottleAnomalyDetector().analyze_trace(0, trace, 0.0, end)
        assert not report.flagged

    def test_too_few_episodes_not_flagged(self):
        trace, end = self._train([750_000.0] * 3)
        report = ThrottleAnomalyDetector().analyze_trace(0, trace, 0.0, end)
        assert not report.flagged
        assert report.episodes == 3


class TestOnSimulatedSystems:
    def test_covert_channel_is_detected(self):
        system = System(cannon_lake_i3_8121u())
        channel = IccThreadCovert(system)
        channel.transfer(bytes(range(8)))  # ~32 metronomic slots
        detector = ThrottleAnomalyDetector()
        assert detector.any_flagged(system)
        report = detector.analyze_system(system)[0]
        # Two episodes per slot (sender ramp + probe ramp) at the
        # ~1.3 kHz slot clock.
        assert 2_000.0 < report.episode_rate_hz < 3_200.0
        assert report.periodicity > 0.5

    def test_cross_core_channel_flags_both_cores(self):
        system = System(cannon_lake_i3_8121u())
        IccCoresCovert(system).transfer(bytes(range(8)))
        reports = ThrottleAnomalyDetector().analyze_system(system)
        assert all(r.flagged for r in reports)

    def test_organic_workload_not_flagged(self):
        system = System(cannon_lake_i3_8121u())
        attach_trace(system, system.thread_on(0),
                     calculix_like_trace(total_ms=30.0, seed=11))
        system.run_until(ms_to_ns(32.0))
        detector = ThrottleAnomalyDetector()
        assert not detector.any_flagged(system)

    def test_idle_system_not_flagged(self):
        system = System(cannon_lake_i3_8121u())
        system.run_until(ms_to_ns(5.0))
        assert not ThrottleAnomalyDetector().any_flagged(system)


class TestEvasion:
    """The arms race: slot jitter defeats periodicity detection."""

    def test_jittered_channel_still_transfers(self):
        from repro.core.channel import ChannelConfig

        system = System(cannon_lake_i3_8121u())
        channel = IccThreadCovert(
            system, ChannelConfig(slot_jitter_us=400.0))
        report = channel.transfer(bytes(range(8)))
        assert report.received == bytes(range(8))
        assert report.ber == 0.0

    def test_jitter_evades_the_detector(self):
        from repro.core.channel import ChannelConfig

        clocked = System(cannon_lake_i3_8121u())
        IccThreadCovert(clocked).transfer(bytes(range(8)))

        jittered = System(cannon_lake_i3_8121u())
        IccThreadCovert(
            jittered, ChannelConfig(slot_jitter_us=400.0)
        ).transfer(bytes(range(8)))

        detector = ThrottleAnomalyDetector()
        assert detector.any_flagged(clocked)
        assert not detector.any_flagged(jittered)

    def test_jitter_costs_throughput(self):
        from repro.core.channel import ChannelConfig

        plain = System(cannon_lake_i3_8121u())
        plain_report = IccThreadCovert(plain).transfer(bytes(range(8)))
        stealthy = System(cannon_lake_i3_8121u())
        stealthy_report = IccThreadCovert(
            stealthy, ChannelConfig(slot_jitter_us=400.0)
        ).transfer(bytes(range(8)))
        assert stealthy_report.throughput_bps < plain_report.throughput_bps


class TestJitteredSchedule:
    def test_both_parties_compute_identical_slots(self):
        from repro.core.sync import JitteredSchedule

        a = JitteredSchedule(0.0, 1000.0, jitter_ns=300.0, seed=5)
        b = JitteredSchedule(0.0, 1000.0, jitter_ns=300.0, seed=5)
        assert [a.slot_start(i) for i in range(10)] == [
            b.slot_start(i) for i in range(10)]

    def test_offsets_within_jitter(self):
        from repro.core.sync import JitteredSchedule

        schedule = JitteredSchedule(0.0, 1000.0, jitter_ns=300.0, seed=5)
        for i in range(20):
            base = i * 1000.0
            assert base <= schedule.slot_start(i) < base + 300.0

    def test_different_seeds_differ(self):
        from repro.core.sync import JitteredSchedule

        a = JitteredSchedule(0.0, 1000.0, jitter_ns=300.0, seed=1)
        b = JitteredSchedule(0.0, 1000.0, jitter_ns=300.0, seed=2)
        assert [a.slot_start(i) for i in range(8)] != [
            b.slot_start(i) for i in range(8)]

    def test_offsets_uniform_over_jitter(self):
        from scipy import stats

        from repro.core.sync import JitteredSchedule

        schedule = JitteredSchedule(0.0, 1000.0, jitter_ns=300.0, seed=7)
        offsets = [schedule.slot_start(i) - i * 1000.0 for i in range(100_000)]
        assert stats.kstest(offsets, stats.uniform(0.0, 300.0).cdf).pvalue > 1e-3

    def test_offset_independent_of_query_order(self):
        from repro.core.sync import JitteredSchedule

        a = JitteredSchedule(0.0, 1000.0, jitter_ns=300.0, seed=5)
        b = JitteredSchedule(0.0, 1000.0, jitter_ns=300.0, seed=5)
        reverse = {i: b.slot_start(i) for i in reversed(range(64))}
        assert [a.slot_start(i) for i in range(64)] == [
            reverse[i] for i in range(64)]

    def test_pinned_offsets(self):
        # Golden (seed, index) -> start pairs: a change of generator must
        # fail here, not only as drifted goldens downstream.
        from repro.core.sync import JitteredSchedule

        schedule = JitteredSchedule(0.0, 1000.0, jitter_ns=300.0, seed=7)
        assert [schedule.slot_start(i) for i in (0, 1, 7, 10**6)] == [
            216.45245418149108, 1194.9113009405366, 7270.562856456156,
            1000000161.7888615]

    def test_jitter_must_stay_below_slot(self):
        from repro.core.sync import JitteredSchedule
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            JitteredSchedule(0.0, 1000.0, jitter_ns=1000.0)
        with pytest.raises(ProtocolError):
            JitteredSchedule(0.0, 1000.0, jitter_ns=-1.0)


class TestEdgeCases:
    """Boundary behaviour: empty traces and exact thresholds."""

    def _train(self, intervals):
        trace = StepTrace("t")
        t = 0.0
        trace.record(t, 0)
        for gap in intervals:
            t += gap
            trace.record(t, 1)
            trace.record(t + 1000.0, 0)
        return trace, t + 2000.0

    def test_empty_trace_yields_calm_report(self):
        report = ThrottleAnomalyDetector().analyze_trace(
            0, StepTrace("t"), 0.0, ms_to_ns(10.0))
        assert not report.flagged
        assert report.episodes == 0
        assert report.periodicity == 0.0
        assert report.mean_interval_ns == 0.0
        assert report.episode_rate_hz == 0.0

    def test_exactly_min_episodes_gets_a_verdict(self):
        # min_episodes is inclusive: a metronomic train of exactly that
        # many episodes must already be flaggable.
        detector = ThrottleAnomalyDetector(min_episodes=6)
        trace, end = self._train([750_000.0] * 6)
        report = detector.analyze_trace(0, trace, 0.0, end)
        assert report.episodes == 6
        assert report.flagged

    def test_one_short_of_min_episodes_is_no_evidence(self):
        detector = ThrottleAnomalyDetector(min_episodes=6)
        trace, end = self._train([750_000.0] * 5)
        report = detector.analyze_trace(0, trace, 0.0, end)
        assert report.episodes == 5
        assert not report.flagged
        assert report.periodicity == 0.0

    def test_threshold_is_inclusive(self):
        # flagged is `score >= threshold`: pin the boundary by running
        # the same train through a detector whose threshold equals the
        # measured score exactly.
        trace, end = self._train([750_000.0] * 10)
        score = ThrottleAnomalyDetector().analyze_trace(
            0, trace, 0.0, end).periodicity
        at_boundary = ThrottleAnomalyDetector(periodicity_threshold=score)
        assert at_boundary.analyze_trace(0, trace, 0.0, end).flagged

    def test_threshold_of_one_allowed_but_above_rejected(self):
        ThrottleAnomalyDetector(periodicity_threshold=1.0)
        with pytest.raises(ConfigError):
            ThrottleAnomalyDetector(periodicity_threshold=1.0001)

    def test_periodicity_score_needs_three_starts(self):
        detector = ThrottleAnomalyDetector()
        assert detector.periodicity_score([1.0, 2.0], 0.0, 10.0) == 0.0
