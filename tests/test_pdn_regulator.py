"""Voltage regulator models: spec validation, commands, histories."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, SimulationError
from repro.pdn import VRKind, VRSpec, VoltageRegulator
from repro.pdn.regulator import fivr_spec, ldo_spec, mbvr_spec


def make_spec(**overrides):
    base = dict(kind=VRKind.MBVR, slew_mv_per_us=1.25,
                command_latency_ns=1500.0, vid_step_mv=2.5,
                vcc_max=1.2, icc_max=50.0)
    base.update(overrides)
    return VRSpec(**base)


class TestVRSpec:
    def test_rejects_nonpositive_slew(self):
        with pytest.raises(ConfigError):
            make_spec(slew_mv_per_us=0.0)

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigError):
            make_spec(command_latency_ns=-1.0)

    def test_rejects_nonpositive_vid_step(self):
        with pytest.raises(ConfigError):
            make_spec(vid_step_mv=0.0)

    def test_rejects_nonpositive_limits(self):
        with pytest.raises(ConfigError):
            make_spec(vcc_max=0.0)
        with pytest.raises(ConfigError):
            make_spec(icc_max=-1.0)

    def test_quantize_rounds_up(self):
        spec = make_spec(vid_step_mv=5.0)
        assert spec.quantize_vid(0.8001) == pytest.approx(0.805)

    def test_quantize_exact_value_unchanged(self):
        spec = make_spec(vid_step_mv=5.0)
        assert spec.quantize_vid(0.805) == pytest.approx(0.805)

    def test_transition_ns_includes_latency_and_slew(self):
        spec = make_spec(slew_mv_per_us=1.0, command_latency_ns=1000.0)
        # 10 mV at 1 mV/us = 10 us slew + 1 us latency.
        assert spec.transition_ns(0.800, 0.810) == pytest.approx(11_000.0)

    def test_transition_symmetric_up_down(self):
        spec = make_spec()
        assert spec.transition_ns(0.8, 0.9) == pytest.approx(
            spec.transition_ns(0.9, 0.8))


class TestFactories:
    def test_mbvr_is_slowest(self):
        mbvr = mbvr_spec(1.2, 50.0)
        fivr = fivr_spec(1.2, 50.0)
        ldo = ldo_spec(1.2, 50.0)
        assert mbvr.slew_mv_per_us < fivr.slew_mv_per_us < ldo.slew_mv_per_us

    def test_ldo_transitions_under_half_microsecond(self):
        # The Section 7 mitigation claim: LDO transitions < 0.5 us.
        ldo = ldo_spec(1.2, 50.0)
        assert ldo.transition_ns(0.800, 0.840) < 500.0

    def test_kinds(self):
        assert mbvr_spec(1.2, 50.0).kind == VRKind.MBVR
        assert fivr_spec(1.2, 50.0).kind == VRKind.FIVR
        assert ldo_spec(1.2, 50.0).kind == VRKind.LDO


class TestVoltageRegulator:
    def test_initial_voltage(self):
        vr = VoltageRegulator(make_spec(), 0.8)
        assert vr.voltage_at(0.0) == pytest.approx(0.8)

    def test_command_reaches_target_after_settle(self):
        vr = VoltageRegulator(make_spec(vid_step_mv=5.0), 0.8)
        settle = vr.command(0.0, 0.82)
        assert vr.voltage_at(settle) == pytest.approx(0.82)

    def test_command_returns_settle_time(self):
        spec = make_spec(slew_mv_per_us=1.0, command_latency_ns=1000.0,
                         vid_step_mv=5.0)
        vr = VoltageRegulator(spec, 0.8)
        settle = vr.command(0.0, 0.810)
        assert settle == pytest.approx(11_000.0)

    def test_voltage_ramps_linearly(self):
        spec = make_spec(slew_mv_per_us=1.0, command_latency_ns=0.0,
                         vid_step_mv=5.0)
        vr = VoltageRegulator(spec, 0.8)
        vr.command(0.0, 0.810)
        assert vr.voltage_at(5_000.0) == pytest.approx(0.805)

    def test_voltage_flat_during_command_latency(self):
        spec = make_spec(slew_mv_per_us=1.0, command_latency_ns=2_000.0,
                         vid_step_mv=5.0)
        vr = VoltageRegulator(spec, 0.8)
        vr.command(0.0, 0.810)
        assert vr.voltage_at(1_000.0) == pytest.approx(0.8)

    def test_busy_until_command_settles(self):
        vr = VoltageRegulator(make_spec(), 0.8)
        settle = vr.command(0.0, 0.85)
        assert vr.is_busy(settle / 2)
        assert not vr.is_busy(settle)

    def test_command_while_busy_raises(self):
        vr = VoltageRegulator(make_spec(), 0.8)
        vr.command(0.0, 0.85)
        with pytest.raises(SimulationError):
            vr.command(10.0, 0.9)

    def test_noop_command_settles_immediately(self):
        vr = VoltageRegulator(make_spec(vid_step_mv=5.0), 0.805)
        settle = vr.command(100.0, 0.805)
        assert settle == pytest.approx(100.0)
        assert not vr.is_busy(100.0)

    def test_target_clamped_to_vcc_max(self):
        vr = VoltageRegulator(make_spec(vcc_max=0.9), 0.8)
        settle = vr.command(0.0, 1.5)
        assert vr.voltage_at(settle) == pytest.approx(0.9)

    def test_settled_voltage_is_latest_target(self):
        vr = VoltageRegulator(make_spec(vid_step_mv=5.0), 0.8)
        settle = vr.command(0.0, 0.82)
        assert vr.settled_voltage() == pytest.approx(0.82)
        vr.command(settle + 1.0, 0.8)
        assert vr.settled_voltage() == pytest.approx(0.8)

    def test_down_transition_supported(self):
        vr = VoltageRegulator(make_spec(vid_step_mv=5.0), 0.9)
        settle = vr.command(0.0, 0.8)
        assert vr.voltage_at(settle) == pytest.approx(0.8)
        assert vr.voltage_at(settle / 2) < 0.9

    def test_history_breakpoints_nondecreasing_time(self):
        vr = VoltageRegulator(make_spec(), 0.8)
        settle = vr.command(0.0, 0.85)
        vr.command(settle + 5.0, 0.8)
        times = [t for t, _ in vr.history()]
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_rejects_nonpositive_initial_voltage(self):
        with pytest.raises(ConfigError):
            VoltageRegulator(make_spec(), 0.0)


class _SegmentOracle:
    """Reference rail history: a plain list of (t0, t1, v0, v1) segments.

    Mirrors :meth:`VoltageRegulator.command` and ``force_level`` with an
    object-per-segment store.  A query time matched by several segment
    starts goes to the last appended one; a time before the history
    reads the first segment's start voltage.
    """

    def __init__(self, spec, level):
        self.spec = spec
        self.segments = [(0.0, 0.0, level, level)]
        self.busy_until = 0.0

    def voltage_at(self, t_ns):
        match = None
        for segment in self.segments:
            if segment[0] <= t_ns:
                match = segment
        if match is None:
            return self.segments[0][2]
        t0, t1, v0, v1 = match
        if t1 <= t0:
            return v1
        frac = (t_ns - t0) / (t1 - t0)
        if not frac > 0.0:
            frac = 0.0
        elif not frac < 1.0:
            frac = 1.0
        return v0 + frac * (v1 - v0)

    def command(self, now_ns, target_vcc):
        spec = self.spec
        target = min(spec.quantize_vid(target_vcc), spec.vcc_max)
        v_now = self.voltage_at(now_ns)
        if abs(target - v_now) < 1e-12:
            self.busy_until = now_ns
            return
        start = now_ns + spec.command_latency_ns
        end = start + abs(target - v_now) / spec._slew_v_per_us * 1_000.0
        self.segments.append((now_ns, start, v_now, v_now))
        self.segments.append((start, end, v_now, target))
        self.busy_until = end

    def force_level(self, vcc):
        if len(self.segments) > 1 or self.busy_until > 0.0:
            return False
        level = min(self.spec.quantize_vid(vcc), self.spec.vcc_max)
        self.segments = [(0.0, 0.0, level, level)]
        return True

    def history(self):
        points = []
        for t0, t1, v0, v1 in self.segments:
            points.append((t0, v0))
            points.append((t1, v1))
        return points

    def breakpoints(self):
        times, volts = [], []
        for t, v in self.history():
            if times and t == times[-1] and v == volts[-1]:
                continue
            times.append(t)
            volts.append(v)
        return times, volts


# Repeated grid values make no-op commands likely; arbitrary floats give
# off-grid initial levels and targets.
_volts = st.one_of(
    st.sampled_from([0.7, 0.75, 0.8, 0.8025, 0.85, 0.9, 1.0, 1.3]),
    st.floats(min_value=0.6, max_value=1.3),
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("command"),
                  st.one_of(st.just(0.0),
                            st.floats(min_value=0.0, max_value=50_000.0)),
                  _volts),
        st.tuples(st.just("force"), st.just(0.0), _volts),
    ),
    max_size=12,
)


class TestColumnHistoryProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        ops=_ops,
        v_initial=_volts,
        slew=st.sampled_from([1.25, 2.0, 100.0]),
        latency=st.sampled_from([0.0, 50.0, 1500.0]),
        step=st.sampled_from([2.5, 5.0]),
        probes=st.lists(st.floats(min_value=-1_000.0, max_value=1e6),
                        max_size=20),
    )
    def test_matches_segment_list_oracle(self, ops, v_initial, slew,
                                         latency, step, probes):
        spec = make_spec(slew_mv_per_us=slew, command_latency_ns=latency,
                         vid_step_mv=step, vcc_max=1.2)
        vr = VoltageRegulator(spec, v_initial)
        oracle = _SegmentOracle(spec, v_initial)
        for kind, gap, vcc in ops:
            if kind == "force":
                if oracle.force_level(vcc):
                    vr.force_level(vcc)
                else:
                    with pytest.raises(SimulationError):
                        vr.force_level(vcc)
            else:
                now = vr.busy_until + gap
                vr.command(now, vcc)
                oracle.command(now, vcc)
        assert vr.history() == oracle.history()
        assert vr.settled_voltage() == oracle.segments[-1][3]
        # Every breakpoint (where start ties sit) plus random times.
        for t in [t for t, _ in oracle.history()] + probes:
            assert vr.voltage_at(t) == oracle.voltage_at(t)
        times, volts = vr.breakpoints()
        assert (times.tolist(), volts.tolist()) == oracle.breakpoints()
