"""Edge-case coverage across modules: branches the main suites skip."""

import pytest

from repro import IClass, Loop, System, SystemOptions
from repro.errors import (
    ConfigError,
    ProtocolError,
    SimulationError,
)
from repro.soc.config import cannon_lake_i3_8121u
from repro.units import us_to_ns


class TestRegulatorEdges:
    def test_force_level_refused_after_commands(self):
        from repro.pdn.regulator import VoltageRegulator, mbvr_spec

        vr = VoltageRegulator(mbvr_spec(1.2, 50.0), 0.8)
        vr.command(0.0, 0.85)
        with pytest.raises(SimulationError):
            vr.force_level(0.9)

    def test_force_level_respects_vcc_max(self):
        from repro.pdn.regulator import VoltageRegulator, mbvr_spec

        vr = VoltageRegulator(mbvr_spec(1.0, 50.0), 0.8)
        vr.force_level(2.0)
        assert vr.voltage_at(0.0) == pytest.approx(1.0)

    def test_command_time_regression_rejected(self):
        from repro.pdn.regulator import VoltageRegulator, mbvr_spec

        vr = VoltageRegulator(mbvr_spec(1.2, 50.0), 0.8)
        settle = vr.command(1_000.0, 0.85)
        with pytest.raises(SimulationError):
            vr.command(settle - 2_000.0, 0.9)


class TestDroopEdges:
    def test_filter_boundary_is_inclusive(self):
        from repro.pdn.droop import DroopModel, DroopSpec

        model = DroopModel(DroopSpec(filter_step_a=1.0), 0.0018)
        at_boundary = model.load_voltage_min(1.0, 10.0, 11.0)
        just_above = model.load_voltage_min(1.0, 10.0, 11.001)
        assert at_boundary > just_above  # transient kicks in past the filter

    def test_downward_steps_never_add_transient(self):
        from repro.pdn.droop import DroopModel, DroopSpec

        model = DroopModel(DroopSpec(), 0.0018)
        v = model.load_voltage_min(1.0, 30.0, 10.0)
        assert v == pytest.approx(1.0 - 0.0018 * 10.0)


class TestSystemEdges:
    def test_run_to_completion_drains_programs(self):
        system = System(cannon_lake_i3_8121u())
        done = []

        def program():
            yield system.sleep(100.0)
            done.append(True)

        system.spawn(program())
        system.run_to_completion()
        assert done == [True]

    def test_double_execute_on_thread_rejected(self):
        system = System(cannon_lake_i3_8121u())

        def a():
            yield system.execute(0, Loop(IClass.SCALAR_64, 1000))

        def b():
            yield system.sleep(10.0)
            yield system.execute(0, Loop(IClass.SCALAR_64, 10))

        system.spawn(a())
        system.spawn(b())
        with pytest.raises(SimulationError):
            system.run_until(us_to_ns(100.0))

    def test_unknown_request_object_rejected(self):
        system = System(cannon_lake_i3_8121u())

        def program():
            yield "not a request"

        system.spawn(program())
        with pytest.raises(SimulationError):
            system.run_until(1_000.0)

    def test_negative_sleep_rejected(self):
        system = System(cannon_lake_i3_8121u())
        with pytest.raises(ConfigError):
            system.sleep(-1.0)

    def test_thread_on_validates_slot(self):
        system = System(cannon_lake_i3_8121u())
        with pytest.raises(ConfigError):
            system.thread_on(0, 5)

    def test_disable_throttling_keeps_timing_baseline(self):
        # With the throttle ablated, a PHI loop runs at full rate.
        system = System(cannon_lake_i3_8121u(),
                        options=SystemOptions(disable_throttling=True))
        sink = []

        def program():
            sink.append((yield system.execute(0, Loop(IClass.HEAVY_512, 30))))

        system.spawn(program())
        system.run_until(us_to_ns(300.0))
        expected = Loop(IClass.HEAVY_512, 30).unthrottled_ns(2.2)
        assert sink[0].elapsed_ns == pytest.approx(expected + 24.0, rel=0.02)


class TestChannelEdges:
    def test_transfer_report_goodput_discounts_errors(self):
        from repro.core.channel import TransferReport
        from repro.core.levels import ChannelLocation

        report = TransferReport(
            sent=b"\x00", received=b"\xff",
            symbols_sent=[0, 0, 0, 0], symbols_received=[3, 3, 3, 3],
            measurements_tsc=[1.0] * 4, start_ns=0.0, end_ns=1e9,
            location=ChannelLocation.SAME_THREAD)
        assert report.ber == 1.0
        assert report.goodput_bps == 0.0

    def test_calibrator_exposed_before_and_after(self):
        from repro.core import IccThreadCovert

        channel = IccThreadCovert(System(cannon_lake_i3_8121u()))
        assert channel.calibrator is None
        channel.calibrate()
        assert channel.calibrator is not None

    def test_levels_have_paper_names(self):
        from repro.core.levels import LEVEL_NAMES

        assert LEVEL_NAMES == {0: "L1", 1: "L2", 2: "L3", 3: "L4"}


class TestTraceEdges:
    def test_sample_series_empty_stats_rejected(self):
        import numpy as np

        from repro.errors import MeasurementError
        from repro.measure import SampleSeries

        empty = SampleSeries(np.array([]), np.array([]))
        with pytest.raises(MeasurementError):
            empty.mean()
        with pytest.raises(MeasurementError):
            empty.minmax()


class TestLocalPmuEdges:
    def test_requirement_with_only_old_history(self):
        from repro.pdn.powergate import skylake_gate
        from repro.pmu import LocalPMU

        local = LocalPMU(0, us_to_ns(650.0), skylake_gate(), skylake_gate())
        local.note_execute(IClass.HEAVY_512, 0.0)
        assert local.next_expiry_ns(us_to_ns(700.0)) is None

    def test_gate_wake_sequencing_512(self):
        # The 512-bit unit wakes after the 256-bit one: latencies add.
        from repro.pdn.powergate import skylake_gate
        from repro.pmu import LocalPMU

        local = LocalPMU(0, us_to_ns(650.0), skylake_gate(), skylake_gate())
        total = local.gate_wake_latency(IClass.HEAVY_512, 0.0)
        assert total == pytest.approx(24.0)


class TestSessionEdges:
    def test_frame_parse_rejects_garbage(self):
        from repro.core import IccThreadCovert
        from repro.core.session import CovertSession

        session = CovertSession(IccThreadCovert(System(cannon_lake_i3_8121u())))
        assert session._parse_frame(b"\x00") is None
        assert session._parse_frame(b"\xff\x00\x00\x00") is None

    def test_frame_roundtrip(self):
        from repro.core import IccThreadCovert
        from repro.core.session import CovertSession

        session = CovertSession(IccThreadCovert(System(cannon_lake_i3_8121u())))
        framed = session._frame(7, b"data")
        assert session._parse_frame(framed) == (7, b"data")
