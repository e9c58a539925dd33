"""Central PMU: serialised transitions, collective release, limits."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.isa import IClass
from repro.obs import tracing
from repro.pdn import VoltageRegulator
from repro.pmu import CentralPMU, PMUConfig
from repro.pmu.central import _Request
from repro.soc.config import cannon_lake_i3_8121u
from repro.soc.engine import Engine


def build_pmu(n_cores=2, per_core_vr=False, secure=False, freq=2.2):
    config = cannon_lake_i3_8121u()
    engine = Engine()
    table = config.operating_points()
    spec = config.vr_spec()
    v0 = spec.quantize_vid(table.vcc(freq))
    if per_core_vr:
        rails = [VoltageRegulator(spec, v0, name=f"vr{i}") for i in range(n_cores)]
        rail_of_core = list(range(n_cores))
    else:
        rails = [VoltageRegulator(spec, v0, name="vr")]
        rail_of_core = [0] * n_cores
    pmu = CentralPMU(engine, rails, rail_of_core, table,
                     requested_freq_ghz=freq,
                     config=PMUConfig(secure_mode=secure))
    return engine, pmu


class TestRequestUp:
    def test_scalar_never_queues(self):
        _, pmu = build_pmu()
        assert not pmu.request_up(0, IClass.SCALAR_64)
        assert not pmu.is_core_throttled(0)

    def test_phi_request_throttles_core(self):
        _, pmu = build_pmu()
        assert pmu.request_up(0, IClass.HEAVY_256)
        assert pmu.is_core_throttled(0)

    def test_release_after_settle(self):
        engine, pmu = build_pmu()
        pmu.request_up(0, IClass.HEAVY_256)
        engine.run()
        assert not pmu.is_core_throttled(0)
        assert pmu.granted[0] == IClass.HEAVY_256

    def test_rail_voltage_rises_for_grant(self):
        engine, pmu = build_pmu()
        before = pmu.core_voltage(0)
        pmu.request_up(0, IClass.HEAVY_512)
        engine.run()
        assert pmu.core_voltage(0, engine.now) > before

    def test_covered_request_does_not_throttle(self):
        engine, pmu = build_pmu()
        pmu.request_up(0, IClass.HEAVY_512)
        engine.run()
        assert not pmu.request_up(0, IClass.HEAVY_256)
        assert not pmu.is_core_throttled(0)

    def test_duplicate_pending_request_not_requeued(self):
        engine, pmu = build_pmu()
        pmu.request_up(0, IClass.HEAVY_256)
        pmu.request_up(0, IClass.HEAVY_256)
        engine.run()
        assert pmu.transitions_issued[0] == 1

    def test_escalation_while_pending_queues_higher_level(self):
        engine, pmu = build_pmu()
        pmu.request_up(0, IClass.HEAVY_128)
        pmu.request_up(0, IClass.HEAVY_512)
        engine.run()
        assert pmu.granted[0] == IClass.HEAVY_512

    def test_unknown_core_rejected(self):
        _, pmu = build_pmu()
        with pytest.raises(ConfigError):
            pmu.request_up(7, IClass.HEAVY_256)


class TestSerialization:
    def test_two_cores_serialise_on_shared_rail(self):
        # Multi-Throttling-Cores root cause: one transition at a time.
        engine, pmu = build_pmu()
        release_times = {}

        def watch():
            for core in range(2):
                if core not in release_times and not pmu.is_core_throttled(core):
                    if pmu.granted[core] != IClass.SCALAR_64:
                        release_times[core] = engine.now

        pmu.on_state_change = watch
        pmu.request_up(0, IClass.HEAVY_256)
        engine.schedule(200.0, lambda: pmu.request_up(1, IClass.HEAVY_256))
        engine.run()
        assert pmu.transitions_issued[0] == 2  # one per core, serialised

    def test_collective_release_when_queue_drains(self):
        # Both cores stay throttled until the rail settles for everyone.
        engine, pmu = build_pmu()
        pmu.request_up(0, IClass.HEAVY_256)
        pmu.request_up(1, IClass.HEAVY_256)
        assert pmu.is_core_throttled(0) and pmu.is_core_throttled(1)
        # Run until the first transition settles but not the second.
        first_settle = pmu.rails[0].busy_until
        engine.run_until(first_settle + 1.0)
        assert pmu.is_core_throttled(0), "core 0 released before rail finished"
        engine.run()
        assert not pmu.is_core_throttled(0)
        assert not pmu.is_core_throttled(1)

    def test_second_core_transition_takes_longer(self):
        engine, pmu = build_pmu()
        pmu.request_up(0, IClass.HEAVY_256)
        engine.run()
        t_single = engine.now

        engine2, pmu2 = build_pmu()
        pmu2.request_up(0, IClass.HEAVY_256)
        pmu2.request_up(1, IClass.HEAVY_256)
        engine2.run()
        assert engine2.now > t_single * 1.5

    def test_queue_depth_counts_transitions_ahead(self):
        # 0 on an idle rail; 1 behind another core's in-flight transition.
        with tracing() as tr:
            engine, pmu = build_pmu()
            pmu.request_up(0, IClass.HEAVY_256)
            pmu.request_up(1, IClass.HEAVY_256)
            engine.run()
        depths = [(e.args["core"], e.args["queue_depth"])
                  for e in tr.events if e.name == "pmu.queue_up"]
        assert depths == [(0, 0), (1, 1)]

    def test_per_core_rails_do_not_serialise(self):
        engine, pmu = build_pmu(per_core_vr=True)
        pmu.request_up(0, IClass.HEAVY_256)
        pmu.request_up(1, IClass.HEAVY_256)
        # Both rails transition concurrently: each issues exactly one.
        engine.run()
        assert pmu.transitions_issued == [1, 1]

    def test_per_core_rail_target_excludes_other_cores(self):
        engine, pmu = build_pmu(per_core_vr=True)
        pmu.request_up(0, IClass.HEAVY_512)
        pmu.request_up(1, IClass.HEAVY_128)
        engine.run()
        v0 = pmu.core_voltage(0, engine.now)
        v1 = pmu.core_voltage(1, engine.now)
        assert v0 > v1  # core 1's rail unaffected by core 0's big guardband


class TestRailTarget:
    @pytest.mark.parametrize("per_core_vr", [False, True])
    def test_same_classes_at_two_frequencies_get_each_cold_target(
            self, per_core_vr):
        """The table keys rail targets on the frequency as well as the classes.

        The same grant change is commanded at 2.2 GHz, then again after
        the governor moved the package to 1.6 GHz; each command must
        carry the guardband target computed afresh at its frequency.
        Core 1 holds a grant throughout, which only a shared rail counts.
        """
        engine, pmu = build_pmu(per_core_vr=per_core_vr, freq=2.2)
        pmu.request_up(1, IClass.HEAVY_128)
        engine.run()
        regulator = pmu.rail_of(0)
        commanded = []
        command = regulator.command

        def spy(now_ns, target_vcc):
            commanded.append((pmu.freq_ghz, target_vcc))
            return command(now_ns, target_vcc)

        regulator.command = spy
        classes = ((IClass.HEAVY_256,) if per_core_vr
                   else (IClass.HEAVY_256, IClass.HEAVY_128))
        table = pmu.table
        cold = {}
        for freq in (2.2, 1.6):
            pmu.set_requested_freq(freq)
            engine.run()
            assert pmu.freq_ghz == freq
            cold[freq] = table.guardband.target_vcc(
                table.curve.vcc_for(freq), classes, freq)
            del commanded[:]
            pmu.request_up(0, IClass.HEAVY_256)
            engine.run()
            assert commanded == [(freq, cold[freq])]
            assert table.rail_target(freq, classes) == cold[freq]
            pmu.request_down(0, IClass.SCALAR_64)
            engine.run()
        assert cold[2.2] != cold[1.6]


class TestReleaseInvariant:
    """Release happens only on an idle rail with an empty queue."""

    def test_release_with_a_queued_request_raises(self):
        _, pmu = build_pmu()
        pmu._queues[0].append(_Request(0, IClass.HEAVY_256, up=True))
        with pytest.raises(SimulationError, match="rail 0"):
            pmu._release_if_settled(0)

    def test_release_with_a_transition_in_flight_raises(self):
        _, pmu = build_pmu()
        pmu.request_up(0, IClass.HEAVY_256)
        with pytest.raises(SimulationError, match="rail 0"):
            pmu._release_if_settled(0)


class TestRequestDown:
    def test_down_lowers_rail_without_throttling(self):
        engine, pmu = build_pmu()
        pmu.request_up(0, IClass.HEAVY_512)
        engine.run()
        high = pmu.core_voltage(0, engine.now)
        pmu.request_down(0, IClass.SCALAR_64)
        assert not pmu.is_core_throttled(0)
        engine.run()
        assert pmu.core_voltage(0, engine.now) < high
        assert pmu.granted[0] == IClass.SCALAR_64

    def test_down_to_same_or_higher_ignored(self):
        engine, pmu = build_pmu()
        pmu.request_down(0, IClass.SCALAR_64)
        engine.run()
        assert pmu.transitions_issued[0] == 0


class TestFrequencyProtection:
    def test_icc_limit_drops_frequency(self):
        # Two mobile cores of AVX2 at 3.1 GHz exceed Icc_max (Fig. 7).
        engine, pmu = build_pmu(freq=3.1)
        pmu.set_core_active(0, True)
        pmu.set_core_active(1, True)
        pmu.request_up(0, IClass.HEAVY_256)
        pmu.request_up(1, IClass.HEAVY_256)
        engine.run()
        assert pmu.freq_ghz < 3.1

    def test_frequency_restores_after_down(self):
        engine, pmu = build_pmu(freq=3.1)
        pmu.set_core_active(0, True)
        pmu.set_core_active(1, True)
        pmu.request_up(0, IClass.HEAVY_256)
        pmu.request_up(1, IClass.HEAVY_256)
        engine.run()
        assert pmu.freq_ghz < 3.1
        pmu.request_down(0, IClass.SCALAR_64)
        pmu.request_down(1, IClass.SCALAR_64)
        engine.run()
        pmu.set_core_active(0, False)
        pmu.set_core_active(1, False)
        engine.run()
        assert pmu.freq_ghz == pytest.approx(3.1)

    def test_no_drop_at_low_frequency(self):
        # Key paper point: voltage-transition throttling happens at any
        # frequency, but the frequency itself only drops at turbo.
        engine, pmu = build_pmu(freq=1.4)
        pmu.set_core_active(0, True)
        pmu.request_up(0, IClass.HEAVY_512)
        engine.run()
        assert pmu.freq_ghz == pytest.approx(1.4)

    def test_idle_cores_do_not_count(self):
        engine, pmu = build_pmu(freq=3.1)
        pmu.set_core_active(0, True)
        pmu.request_up(0, IClass.SCALAR_64)
        engine.run()
        assert pmu.freq_ghz == pytest.approx(3.1)

    @pytest.mark.parametrize("freq", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_requested_frequency_rejected(self, freq):
        _, pmu = build_pmu()
        with pytest.raises(ConfigError, match="requested frequency"):
            pmu.set_requested_freq(freq)
        assert pmu.requested_freq_ghz == 2.2


class TestSecureMode:
    def test_no_request_ever_queues(self):
        engine, pmu = build_pmu(secure=True)
        assert not pmu.request_up(0, IClass.HEAVY_512)
        assert not pmu.is_core_throttled(0)
        engine.run()
        assert pmu.transitions_issued[0] == 0

    def test_rail_pinned_at_worst_case(self):
        _, pmu = build_pmu(secure=True)
        # The rail carries the full worst-case guardband above the
        # baseline of the (possibly clamped) secure frequency.
        baseline = pmu.table.vcc(pmu.freq_ghz)
        worst = pmu.table.guardband.worst_case_vcc(baseline, pmu.n_cores,
                                                   pmu.freq_ghz)
        assert pmu.core_voltage(0, 0.0) >= worst - 0.005  # VID clamping

    def test_secure_frequency_fits_worst_case_envelope(self):
        # Running everything at the power-virus guardband can force a
        # lower fixed frequency — a real cost of secure mode.
        _, pmu = build_pmu(secure=True, freq=3.1)
        verdict = pmu.table.limits.evaluate(pmu.freq_ghz,
                                            [IClass.HEAVY_512] * pmu.n_cores)
        assert verdict.ok
        assert pmu.freq_ghz < 3.1

    def test_power_overhead_in_paper_range(self):
        # Section 7: 4-11 % additional power.
        _, pmu = build_pmu(secure=True)
        overhead = pmu.secure_mode_power_overhead(IClass.SCALAR_64)
        assert 0.04 <= overhead <= 0.11


class TestTurboLicenseLimit:
    """The turbo-license-limit defender switch on the central PMU.

    With the limit on, the package ceiling is computed as if every
    core ran the power-virus class, so guardband traffic above base
    frequency stops producing PLL-relock frequency changes — the
    defender trades standing turbo headroom for a quieter frequency
    observable.
    """

    def _run(self, limit):
        import dataclasses
        from repro.scenarios.build import build_system
        from repro.scenarios.registry import get_spec
        from repro.scenarios.run import run_scenario
        from repro.soc.system import SystemOptions
        spec = dataclasses.replace(
            get_spec("baseline_cores"), name="probe_turbo",
            overrides=(("base_freq_ghz", 3.0),),
            options=SystemOptions(turbo_license_limit=limit))
        run = run_scenario(spec)
        return run.document()["system"]

    def test_limit_clamps_to_the_worst_case_ceiling(self):
        limited = self._run(True)
        assert limited["freq_ghz_final"] == pytest.approx(2.6)

    def test_limit_quiets_the_frequency_observable(self):
        baseline = self._run(False)
        limited = self._run(True)
        assert baseline["freq_ghz_final"] == pytest.approx(3.0)
        assert (sum(limited["transitions_issued"])
                < sum(baseline["transitions_issued"]))
