"""Vectorized trace sampling: grids, signal sources, system exports."""

import math

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.isa.instructions import IClass
from repro.isa.workload import Loop
from repro.measure import (
    DAQCard,
    DAQSpec,
    PiecewiseConstantSignal,
    PiecewiseLinearSignal,
    sample_grid,
)
from repro.measure.trace import StepTrace
from repro.soc.config import cannon_lake_i3_8121u, coffee_lake_i7_9700k
from repro.soc.system import System
from repro.units import NS_PER_S, us_to_ns


def _avx_system(config=None, freq=2.2, iterations=60,
                horizon_us=250.0) -> System:
    """A system with a non-trivial rail history (AVX2 loop + throttling)."""
    system = System(config or cannon_lake_i3_8121u(), governor_freq_ghz=freq)

    def program():
        yield system.until(us_to_ns(10.0))
        yield system.execute(system.thread_on(0),
                             Loop(IClass.HEAVY_256, iterations))
        return None

    system.spawn(program(), name="avx")
    system.run_until(us_to_ns(horizon_us))
    return system


class TestSampleGrid:
    # (rate, span): float ``span / period`` rounds UP across an integer,
    # so the naive ``int(span/period) + 1`` grid ends past ``t1``.
    AWKWARD = [
        (3.5e6, 15714.285714285714),
        (4.8e6, 3541.6666666666665),
        (1.7e6, 24117.647058823528),
        (3.3e6, 9999.999999999998),
        (6376.0, 3607277.2898368877),
    ]

    @pytest.mark.parametrize("rate,span", AWKWARD)
    def test_last_sample_never_past_t1(self, rate, span):
        times = sample_grid(0.0, span, rate)
        assert times[-1] <= span
        # The naive count would overshoot: one more period exceeds span.
        period = NS_PER_S / rate
        assert int(span / period) * period > span  # the rounding hazard
        assert (len(times)) * period > span  # grid still covers the span

    @pytest.mark.parametrize("rate,span", AWKWARD)
    def test_grid_is_uniform_from_t0(self, rate, span):
        t0 = 123.456
        times = sample_grid(t0, t0 + span, rate)
        period = NS_PER_S / rate
        expected = t0 + np.arange(len(times)) * period
        # All but a possibly clamped last sample sit exactly on the grid.
        assert np.array_equal(times[:-1], expected[:-1])
        assert times[0] == t0
        assert times[-1] <= t0 + span
        assert times[-1] >= expected[-1] - period * 1e-9

    def test_plain_case_matches_closed_form(self):
        times = sample_grid(0.0, 1000.0, 1e7)  # period = 100 ns
        assert np.array_equal(times, np.arange(11) * 100.0)

    def test_bad_inputs_rejected(self):
        with pytest.raises(MeasurementError):
            sample_grid(0.0, 100.0, 0.0)
        with pytest.raises(MeasurementError):
            sample_grid(100.0, 100.0, 1e6)
        with pytest.raises(MeasurementError):
            sample_grid(100.0, 50.0, 1e6)

    def test_random_rates_hold_invariants(self):
        rng = np.random.default_rng(63)
        for _ in range(200):
            rate = float(rng.uniform(1e3, 3.5e6))
            t0 = float(rng.uniform(0.0, 1e6))
            span = float(rng.uniform(10.0, 1e6))
            times = sample_grid(t0, t0 + span, rate)
            period = NS_PER_S / rate
            assert times[0] == t0
            assert times[-1] <= t0 + span + 1e-9
            assert (len(times)) * period > span


def _interpolate(times, values, t):
    """Per-sample linear interpolation written out, clamped at the ends."""
    if t <= times[0]:
        return values[0]
    for (t0, v0), (t1, v1) in zip(zip(times, values),
                                  zip(times[1:], values[1:])):
        if t <= t1:
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    return values[-1]


class TestPiecewiseLinearSignal:
    def test_scalar_matches_vectorized(self):
        times, values = [0.0, 10.0, 20.0], [1.0, 2.0, 0.5]
        signal = PiecewiseLinearSignal(np.array(times), np.array(values))
        grid = np.linspace(-5.0, 25.0, 301)
        vec = signal.sample(grid)
        scalar = np.array([_interpolate(times, values, float(t))
                           for t in grid])
        assert float(np.max(np.abs(vec - scalar))) <= 1e-12

    def test_clamps_outside_span(self):
        signal = PiecewiseLinearSignal(
            np.array([10.0, 20.0]), np.array([1.0, 2.0]))
        assert list(signal.sample(np.array([0.0, 100.0]))) == [1.0, 2.0]

    def test_jump_encoding_is_right_continuous(self):
        # A jump is two breakpoints at the same time; np.interp takes
        # the later (right) value exactly at the jump.
        signal = PiecewiseLinearSignal(
            np.array([0.0, 10.0, 10.0, 20.0]),
            np.array([1.0, 1.0, 5.0, 5.0]))
        grid = np.array([10.0, math.nextafter(10.0, 0.0)])
        assert list(signal.sample(grid)) == [5.0, 1.0]

    def test_validation(self):
        with pytest.raises(MeasurementError):
            PiecewiseLinearSignal(np.array([]), np.array([]))
        with pytest.raises(MeasurementError):
            PiecewiseLinearSignal(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(MeasurementError):
            PiecewiseLinearSignal(np.array([1.0, 0.0]), np.array([1.0, 2.0]))


class TestPiecewiseConstantSignal:
    def test_right_continuous_with_initial(self):
        signal = PiecewiseConstantSignal(
            np.array([10.0, 20.0]), np.array([1.0, 2.0]), initial=0.5)
        grid = np.array([0.0, 10.0, 19.999, 20.0, 1e9])
        assert list(signal.sample(grid)) == [0.5, 1.0, 1.0, 2.0, 2.0]

    def test_left_limit_lookup(self):
        signal = PiecewiseConstantSignal(
            np.array([10.0, 20.0]), np.array([1.0, 2.0]), initial=0.5)
        left = signal.sample(np.array([10.0, 20.0, 25.0]), inclusive=False)
        assert list(left) == [0.5, 1.0, 2.0]

    def test_matches_step_trace(self):
        trace = StepTrace(name="freq")
        trace.record(10.0, 1.0)
        trace.record(20.0, 2.0)
        trace.record(20.0, 3.0)  # same-time overwrite: latest wins
        signal = trace.signal(default=0.25)
        grid = np.array([0.0, 9.999, 10.0, 15.0, 20.0, 30.0])
        scalar = np.array([trace.value_at(float(t), default=0.25)
                           for t in grid])
        assert np.array_equal(signal.sample(grid), scalar)


class TestSystemSignals:
    """The signal exports must agree with the scalar accessors to 1e-12."""

    @pytest.mark.parametrize("config,freq,rate", [
        (cannon_lake_i3_8121u, 2.2, 3.5e6),   # fig9(a)-style trace
        (coffee_lake_i7_9700k, 2.0, 2e6),     # fig6-style trace
    ])
    def test_vcc_signal_matches_vcc_at(self, config, freq, rate):
        system = _avx_system(config(), freq=freq)
        times = sample_grid(0.0, system.now, rate)
        vec = system.vcc_signal().sample(times)
        scalar = np.array([system.vcc_at(float(t)) for t in times])
        assert float(np.max(np.abs(vec - scalar))) <= 1e-12

    def test_freq_signal_matches_trace(self):
        system = _avx_system(freq=3.1)
        times = sample_grid(0.0, system.now, 1e6)
        vec = system.freq_signal().sample(times)
        scalar = np.array([
            system.freq_trace.value_at(float(t), default=system.pmu.freq_ghz)
            for t in times])
        assert np.array_equal(vec, scalar)

    def test_icc_signal_matches_icc_at(self):
        system = _avx_system(freq=2.2)
        times = sample_grid(0.0, system.now, 3.5e6)
        vec = system.icc_signal().sample(times)
        scalar = np.array([system.icc_at(float(t)) for t in times])
        assert float(np.max(np.abs(vec - scalar))) <= 1e-12

    def test_rail_breakpoints_well_formed(self):
        system = _avx_system()
        times, volts = system.pmu.rail_of(0).breakpoints()
        assert len(times) == len(volts) > 1
        assert np.all(np.diff(times) >= 0)
        # No consecutive duplicate (time, value) points.
        dup = (np.diff(times) == 0) & (np.diff(volts) == 0)
        assert not np.any(dup)

    def test_daq_paths_produce_identical_series(self):
        """A gain-free DAQ capture equals per-sample ``vcc_at``."""
        system = _avx_system()
        horizon = us_to_ns(100.0)
        series = DAQCard(DAQSpec(accuracy=1.0), seed=7).sample(
            system.vcc_signal(), 0.0, horizon, sample_rate_hz=3.5e6,
            name="vcc")
        times = sample_grid(0.0, horizon, 3.5e6)
        scalar = np.array([system.vcc_at(float(t)) for t in times])
        assert np.array_equal(series.times_ns, times)
        assert float(np.max(np.abs(series.values - scalar))) <= 1e-12
