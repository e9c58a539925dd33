"""Traces and the simulated DAQ card."""

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.measure import (
    DAQCard,
    DAQSpec,
    PiecewiseLinearSignal,
    SampleSeries,
    StepTrace,
)

#: The constant 1.0 and the ramp 2t over [0, 1000], as signal sources.
ONE = PiecewiseLinearSignal(np.array([0.0]), np.array([1.0]))
RAMP = PiecewiseLinearSignal(np.array([0.0, 1000.0]), np.array([0.0, 2000.0]))


class TestStepTrace:
    def test_value_at_returns_latest_breakpoint(self):
        trace = StepTrace("f")
        trace.record(0.0, 1.0)
        trace.record(10.0, 2.0)
        assert trace.value_at(5.0) == 1.0
        assert trace.value_at(10.0) == 2.0
        assert trace.value_at(100.0) == 2.0

    def test_default_before_first_record(self):
        trace = StepTrace("f")
        trace.record(10.0, 2.0)
        assert trace.value_at(5.0, default=-1) == -1

    def test_duplicate_value_compacted(self):
        trace = StepTrace("f")
        trace.record(0.0, 1.0)
        trace.record(10.0, 1.0)
        assert len(trace) == 1

    def test_same_time_overwrites(self):
        trace = StepTrace("f")
        trace.record(10.0, 1.0)
        trace.record(10.0, 2.0)
        assert trace.value_at(10.0) == 2.0
        assert len(trace) == 1

    def test_time_going_backwards_rejected(self):
        trace = StepTrace("f")
        trace.record(10.0, 1.0)
        with pytest.raises(MeasurementError):
            trace.record(5.0, 2.0)

    def test_changes_in_window(self):
        trace = StepTrace("f")
        for t in (0.0, 10.0, 20.0, 30.0):
            trace.record(t, t)
        assert trace.changes_in(10.0, 30.0) == [(10.0, 10.0), (20.0, 20.0)]

    def test_value_types_follow_the_first_record(self):
        ints, floats, labels = StepTrace("i"), StepTrace("f"), StepTrace("l")
        for t, (i, f, label) in enumerate([(0, 0.5, "idle"), (1, 1.5, "avx")]):
            ints.record(float(t), i)
            floats.record(float(t), f)
            labels.record(float(t), label)
        assert type(ints.value_at(1.0)) is int
        assert type(floats.value_at(1.0)) is float
        assert type(labels.value_at(1.0)) is str
        assert [type(t) for t, _ in ints.breakpoints()] == [float, float]

    @pytest.mark.parametrize("first, later", [
        (1, 2.5), (1.0, 2), (1.0, "avx"), ("idle", 2.0),
    ])
    def test_later_value_of_another_type_rejected(self, first, later):
        trace = StepTrace("mixed")
        trace.record(0.0, first)
        with pytest.raises(MeasurementError, match="mixed"):
            trace.record(10.0, later)
        with pytest.raises(MeasurementError, match="mixed"):
            trace.record(0.0, later)  # a same-time overwrite too
        assert trace.breakpoints() == [(0.0, first)]

    def test_typed_views_unchanged(self):
        trace = StepTrace("f")
        for t, v in [(0.0, 1), (10.0, 2), (10.0, 3), (20.0, 3), (30.0, 0)]:
            trace.record(t, v)
        assert trace.breakpoints() == [(0.0, 1), (10.0, 3), (30.0, 0)]
        assert trace.changes_in(5.0, 30.0) == [(10.0, 3)]
        signal = trace.signal(default=-1.0)
        assert list(signal.times_ns) == [0.0, 10.0, 30.0]
        assert list(signal.sample(np.array([-1.0, 0.0, 15.0, 40.0]))) == [
            -1.0, 1.0, 3.0, 0.0]
        # The signal is a snapshot: the trace still grows afterwards.
        trace.record(40.0, 5)
        assert len(signal.times_ns) == 3 and len(trace) == 4

class TestSampleSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(MeasurementError):
            SampleSeries(np.array([1.0, 2.0]), np.array([1.0]))

    def test_window(self):
        series = SampleSeries(np.arange(10.0), np.arange(10.0))
        window = series.window(2.0, 5.0)
        assert list(window.times_ns) == [2.0, 3.0, 4.0, 5.0]

    def test_minmax_and_mean(self):
        series = SampleSeries(np.arange(3.0), np.array([1.0, 5.0, 3.0]))
        assert series.minmax() == (1.0, 5.0)
        assert series.mean() == pytest.approx(3.0)

    def test_duration(self):
        series = SampleSeries(np.array([10.0, 30.0]), np.zeros(2))
        assert series.duration_ns == 20.0


class TestDAQ:
    def test_samples_a_signal(self):
        daq = DAQCard(DAQSpec(max_sample_rate_hz=1e7, accuracy=1.0))
        series = daq.sample(RAMP, 0.0, 1000.0, sample_rate_hz=1e7)
        assert len(series) == 11
        assert series.values[5] == pytest.approx(2.0 * series.times_ns[5])

    def test_rate_limited_by_instrument(self):
        daq = DAQCard()
        with pytest.raises(MeasurementError):
            daq.sample(ONE, 0.0, 1000.0, sample_rate_hz=1e9)

    def test_default_rate_is_instrument_max(self):
        daq = DAQCard(DAQSpec(accuracy=1.0))
        series = daq.sample(ONE, 0.0, 1e6)
        # 3.5 MS/s over 1 ms -> ~3500 samples.
        assert 3400 <= len(series) <= 3600

    def test_gain_error_bounded_by_accuracy(self):
        daq = DAQCard(DAQSpec(max_sample_rate_hz=1e7, accuracy=0.9994), seed=1)
        series = daq.sample(ONE, 0.0, 1000.0, sample_rate_hz=1e7)
        assert series.mean() == pytest.approx(1.0, abs=0.01)

    def test_empty_window_rejected(self):
        daq = DAQCard()
        with pytest.raises(MeasurementError):
            daq.sample(ONE, 10.0, 10.0)

    def test_noise_added_when_configured(self):
        daq = DAQCard(DAQSpec(accuracy=1.0, noise_rms=0.1), seed=2)
        series = daq.sample(ONE, 0.0, 1e5, sample_rate_hz=1e6)
        assert float(np.std(series.values)) > 0.01

    def test_non_signal_rejected(self):
        # A bare callable is no signal source either: the DAQ has one path.
        for source in (object(), lambda t: 1.0):
            with pytest.raises(MeasurementError, match=r"sample\(times\)"):
                DAQCard().sample(source, 0.0, 1000.0)

