"""Calibrator and slot synchronisation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Calibrator,
    JitteredSchedule,
    PerturbedSchedule,
    SlotSchedule,
)
from repro.errors import CalibrationError, ProtocolError


def training(clusters):
    """(symbol, value) pairs from {symbol: [values]}."""
    return [(s, v) for s, values in clusters.items() for v in values]


class TestCalibrator:
    def test_decode_matches_training_clusters(self):
        cal = Calibrator(training({0: [10.0, 11.0], 1: [20.0, 21.0],
                                   2: [30.0, 31.0]}))
        assert cal.decode(10.5) == 0
        assert cal.decode(20.5) == 1
        assert cal.decode(30.5) == 2

    def test_decode_extremes(self):
        cal = Calibrator(training({0: [10.0], 1: [20.0]}))
        assert cal.decode(-100.0) == 0
        assert cal.decode(1000.0) == 1

    def test_thresholds_are_midpoints(self):
        cal = Calibrator(training({0: [10.0], 1: [20.0]}))
        assert cal.thresholds == [pytest.approx(15.0)]

    def test_inverted_mapping_supported(self):
        # Same-thread channel: higher symbol -> shorter measurement.
        cal = Calibrator(training({3: [10.0], 2: [20.0], 1: [30.0], 0: [40.0]}))
        assert cal.decode(11.0) == 3
        assert cal.decode(39.0) == 0

    def test_median_center_resists_outliers(self):
        # One interrupt-inflated sample must not move the cluster.
        cal = Calibrator(training({0: [10.0, 10.0, 500.0], 1: [20.0, 20.0, 21.0]}))
        assert cal.decode(12.0) == 0
        assert cal.decode(19.0) == 1

    def test_min_gap_enforced(self):
        with pytest.raises(CalibrationError):
            Calibrator(training({0: [10.0], 1: [10.5]}), min_gap=5.0)

    def test_empty_training_rejected(self):
        with pytest.raises(CalibrationError):
            Calibrator([])

    def test_separations_report_extreme_gaps(self):
        cal = Calibrator(training({0: [10.0, 12.0], 1: [20.0, 22.0]}))
        assert cal.separations() == [(0, 1, pytest.approx(8.0))]

    def test_decode_all(self):
        cal = Calibrator(training({0: [10.0], 1: [20.0]}))
        assert cal.decode_all([9.0, 21.0, 11.0]) == [0, 1, 0]

    def test_stats_exposed(self):
        cal = Calibrator(training({0: [10.0, 12.0]}))
        stats = cal.stats[0]
        assert stats.count == 2
        assert stats.center == pytest.approx(11.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_training_value_rejected(self, bad):
        # A NaN center would make thresholds [nan, 7.5] and decode 4.0,
        # 6.0 and 11.0 all as symbol 0.
        with pytest.raises(CalibrationError, match="symbol 0"):
            Calibrator([(0, bad), (1, 5.0), (2, 10.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_min_gap_rejected(self, bad):
        # ``gap < nan`` is always False, which would silently disable
        # the channel-unusable separation check.
        with pytest.raises(CalibrationError, match="min_gap"):
            Calibrator(training({0: [10.0], 1: [10.5]}), min_gap=bad)


#: Probe times are TSC cycle counts.
_cluster = st.lists(st.floats(min_value=-1e12, max_value=1e12,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=64)


class TestClusterStatistics:
    """The plain-Python cluster statistics against numpy's."""

    @settings(max_examples=200, deadline=None)
    @given(clusters=st.lists(_cluster, min_size=1, max_size=4))
    def test_matches_numpy(self, clusters):
        cal = Calibrator([(symbol, v) for symbol, values in enumerate(clusters)
                          for v in values])
        for symbol, values in enumerate(clusters):
            stats, arr = cal.stats[symbol], np.asarray(values)
            assert stats.count == len(values)
            # What thresholds and separations read: exactly numpy's.
            assert stats.center == float(np.median(arr))
            assert stats.minimum == float(np.min(arr))
            assert stats.maximum == float(np.max(arr))
        centers = sorted(float(np.median(v)) for v in clusters)
        assert cal.thresholds == [(a + b) / 2.0
                                  for a, b in zip(centers, centers[1:])]


class TestSlotSchedule:
    def test_slot_start(self):
        schedule = SlotSchedule(epoch_ns=100.0, slot_ns=50.0)
        assert schedule.slot_start(0) == 100.0
        assert schedule.slot_start(3) == 250.0

    def test_slot_index_at(self):
        schedule = SlotSchedule(100.0, 50.0)
        assert schedule.slot_index_at(99.0) == -1
        assert schedule.slot_index_at(100.0) == 0
        assert schedule.slot_index_at(174.0) == 1

    def test_next_slot_after(self):
        schedule = SlotSchedule(100.0, 50.0)
        assert schedule.next_slot_after(0.0) == 0
        assert schedule.next_slot_after(100.0) == 1
        assert schedule.next_slot_after(160.0) == 2

    def test_negative_slot_rejected(self):
        schedule = SlotSchedule(100.0, 50.0)
        with pytest.raises(ProtocolError):
            schedule.slot_start(-1)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ProtocolError):
            SlotSchedule(0.0, 0.0)
        with pytest.raises(ProtocolError):
            SlotSchedule(-1.0, 10.0)

    @pytest.mark.parametrize("epoch_ns", [float("nan"), float("inf")])
    def test_non_finite_epoch_rejected(self, epoch_ns):
        with pytest.raises(ProtocolError, match="epoch"):
            SlotSchedule(epoch_ns, 10.0)

    @pytest.mark.parametrize("slot_ns", [float("nan"), float("inf")])
    def test_non_finite_slot_rejected(self, slot_ns):
        with pytest.raises(ProtocolError, match="slot_ns must be finite"):
            SlotSchedule(0.0, slot_ns)

    @pytest.mark.parametrize("jitter_ns", [float("nan"), -1.0, 10.0])
    def test_bad_jitter_rejected(self, jitter_ns):
        with pytest.raises(ProtocolError, match="jitter"):
            JitteredSchedule(0.0, 10.0, jitter_ns=jitter_ns)

    @pytest.mark.parametrize("sigma_ns", [float("nan"), float("inf"), -1.0])
    def test_bad_perturbation_sigma_rejected(self, sigma_ns):
        with pytest.raises(ProtocolError, match="sigma"):
            PerturbedSchedule.wrap(SlotSchedule(0.0, 10.0), sigma_ns, 5.0,
                                   salt=(1,))

    @pytest.mark.parametrize("cap_ns", [float("nan"), float("inf"), -1.0])
    def test_bad_perturbation_cap_rejected(self, cap_ns):
        with pytest.raises(ProtocolError, match="cap"):
            PerturbedSchedule.wrap(SlotSchedule(0.0, 10.0), 1.0, cap_ns,
                                   salt=(1,))


class TestSlotBoundaryRoundoff:
    """Float round-off on exact slot boundaries (regression).

    ``0.3 / 0.1 == 2.999…`` in float64, so a query exactly on a slot
    boundary used to be assigned to the *previous* slot — and
    ``next_slot_after`` then returned a slot that had already started,
    silently costing the receiver its alignment.
    """

    def test_exact_boundary_belongs_to_the_starting_slot(self):
        schedule = SlotSchedule(0.0, 0.1)
        assert schedule.slot_index_at(0.3) == 3  # 0.3/0.1 == 2.999…
        assert schedule.next_slot_after(0.3) == 4

    def test_boundary_queries_over_awkward_decimals(self):
        schedule = SlotSchedule(0.0, 0.1)
        for k in range(50):
            assert schedule.slot_index_at(k * 0.1) == k, k

    def test_midslot_queries_unaffected(self):
        schedule = SlotSchedule(0.0, 0.1)
        assert schedule.slot_index_at(0.35) == 3
        assert schedule.slot_index_at(0.299) == 2

    @given(
        slot_ns=st.floats(min_value=1e-1, max_value=1e7,
                          allow_nan=False, allow_infinity=False),
        epoch_ns=st.floats(min_value=0.0, max_value=1e12,
                           allow_nan=False, allow_infinity=False),
        k=st.integers(min_value=0, max_value=1_000_000),
    )
    @settings(max_examples=300, deadline=None)
    def test_slot_starts_map_back_to_their_own_slot(self, slot_ns, epoch_ns, k):
        schedule = SlotSchedule(epoch_ns, slot_ns)
        start = schedule.slot_start(k)
        assert schedule.slot_index_at(start) == k
        assert schedule.next_slot_after(start) == k + 1


class TestDecisionDirectedTracking:
    def _drifting_stream(self, centers, symbols, drift_per_step=0.008):
        """Readings whose true centers inflate multiplicatively over time."""
        readings = []
        scale = 1.0
        for symbol in symbols:
            readings.append(centers[symbol] * scale)
            scale *= 1.0 + drift_per_step
        return readings

    def test_static_decoder_loses_lock_under_cumulative_drift(self):
        centers = {0: 10_000.0, 1: 13_000.0, 2: 16_000.0, 3: 19_000.0}
        cal = Calibrator([(s, c) for s, c in centers.items()])
        symbols = [0, 1, 2, 3] * 15
        readings = self._drifting_stream(centers, symbols)
        decoded = cal.decode_all(readings)
        assert decoded != symbols  # drift eventually crosses thresholds

    def test_tracking_decoder_follows_the_drift(self):
        centers = {0: 10_000.0, 1: 13_000.0, 2: 16_000.0, 3: 19_000.0}
        cal = Calibrator([(s, c) for s, c in centers.items()])
        symbols = [0, 1, 2, 3] * 15
        readings = self._drifting_stream(centers, symbols)
        decoded = cal.decode_all_tracking(readings, alpha=0.4)
        assert decoded == symbols

    def test_tracking_centers_actually_move(self):
        cal = Calibrator([(0, 100.0), (1, 200.0)])
        cal.track(0, 110.0, alpha=0.5)
        assert cal.stats[0].center == pytest.approx(105.0)
        assert cal.thresholds[0] == pytest.approx((105.0 + 200.0) / 2)

    def test_outliers_do_not_drag_clusters(self):
        cal = Calibrator([(0, 100.0), (1, 200.0)])
        cal.track(0, 5_000.0, alpha=0.5)  # an interrupt-inflated reading
        assert cal.stats[0].center == pytest.approx(100.0)

    def test_nan_reading_is_ignored_like_an_outlier(self):
        cal = Calibrator([(0, 100.0), (1, 200.0)])
        cal.track(0, math.nan, alpha=0.5)
        assert cal.stats[0].center == 100.0
        assert cal.thresholds == [150.0]

    def test_track_validation(self):
        cal = Calibrator([(0, 100.0), (1, 200.0)])
        with pytest.raises(CalibrationError):
            cal.track(0, 100.0, alpha=0.0)
        with pytest.raises(CalibrationError):
            cal.track(9, 100.0)

    def test_tracking_never_worse_under_frequency_steps(self):
        # End to end: governor steps mid-transfer shift the level
        # geometry; tracking must match or beat the static decoder.
        from repro import System
        from repro.core import IccThreadCovert
        from repro.soc.config import cannon_lake_i3_8121u

        def run(tracking):
            system = System(cannon_lake_i3_8121u(), governor_freq_ghz=2.2)
            channel = IccThreadCovert(system)
            channel.calibrate()
            symbols = [0, 1, 2, 3] * 6
            def governor_program():
                yield system.sleep(12 * channel.slot_ns)
                system.pmu.set_requested_freq(2.0)
            system.spawn(governor_program())
            readings = channel.run_symbols(symbols)
            calibrator = channel.calibrator
            decoded = (calibrator.decode_all_tracking(readings)
                       if tracking else calibrator.decode_all(readings))
            return sum(1 for a, b in zip(symbols, decoded) if a != b)

        assert run(tracking=True) <= run(tracking=False)
