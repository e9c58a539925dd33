"""System-level behaviour: the three throttling side effects and more."""

import gc

import pytest

from repro import IClass, Loop, System, SystemOptions
from repro.core import IccThreadCovert
from repro.errors import ConfigError, SimulationError
from repro.pmu.thermal import ThermalSpec
from repro.soc.config import (
    cannon_lake_i3_8121u,
    coffee_lake_i7_9700k,
    haswell_i7_4770k,
)
from repro.soc.engine import EventHandle
from repro.soc.system import _Activity
from repro.units import us_to_ns


def run_single_loop(system, thread_id, loop, start_us=5.0, horizon_us=500.0):
    """Run one loop on one thread; return its ExecResult."""
    sink = []

    def program():
        yield system.until(us_to_ns(start_us))
        result = yield system.execute(thread_id, loop)
        sink.append(result)
        return None

    system.spawn(program())
    system.run_until(us_to_ns(horizon_us))
    assert sink, "loop did not finish within the horizon"
    return sink[0]


def fresh(governor=2.2, options=SystemOptions(), config=None):
    return System(config or cannon_lake_i3_8121u(), options=options,
                  governor_freq_ghz=governor)


class TestExecution:
    def test_scalar_loop_runs_unthrottled(self):
        system = fresh()
        result = run_single_loop(system, 0, Loop(IClass.SCALAR_64, 30))
        assert result.throttled_ns == 0.0
        expected = Loop(IClass.SCALAR_64, 30).unthrottled_ns(2.2)
        assert result.elapsed_ns == pytest.approx(expected, rel=0.01)

    def test_phi_loop_is_throttled_during_ramp(self):
        system = fresh()
        result = run_single_loop(system, 0, Loop(IClass.HEAVY_256, 30))
        assert result.throttled_ns > us_to_ns(2.0)

    def test_tsc_matches_elapsed(self):
        system = fresh()
        result = run_single_loop(system, 0, Loop(IClass.SCALAR_64, 30))
        assert result.elapsed_tsc == pytest.approx(
            result.elapsed_ns * system.config.base_freq_ghz, abs=2)

    def test_result_reports_instruction_counts(self):
        system = fresh()
        loop = Loop(IClass.SCALAR_64, 10, block_instructions=200)
        result = run_single_loop(system, 0, loop)
        assert result.instructions == 2000
        assert result.iterations == 10

    def test_two_loops_sequential_on_same_thread(self):
        system = fresh()
        results = []

        def program():
            yield system.until(us_to_ns(5.0))
            results.append((yield system.execute(0, Loop(IClass.SCALAR_64, 10))))
            results.append((yield system.execute(0, Loop(IClass.SCALAR_64, 10))))
            return None

        system.spawn(program())
        system.run_until(us_to_ns(200.0))
        assert len(results) == 2
        assert results[1].start_ns >= results[0].end_ns

    def test_avx512_rejected_on_parts_without_it(self):
        system = fresh(governor=3.0, config=coffee_lake_i7_9700k())
        with pytest.raises(ConfigError):
            system.execute(0, Loop(IClass.HEAVY_512, 10))

    def test_unknown_thread_rejected(self):
        system = fresh()
        with pytest.raises(ConfigError):
            system.execute(99, Loop(IClass.SCALAR_64, 1))

    def test_governor_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            fresh(governor=9.0)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), -1.0])
    def test_sleep_rejects_non_finite_and_negative(self, delay):
        with pytest.raises(ConfigError, match=str(delay)):
            fresh().sleep(delay)

    @pytest.mark.parametrize("when", [float("nan"), float("inf"),
                                      float("-inf")])
    def test_until_rejects_non_finite(self, when):
        with pytest.raises(ConfigError, match=str(when)):
            fresh().until(when)


class TestMultiThrottlingThread:
    """Observation 1: multi-level TP proportional to intensity."""

    def test_tp_increases_with_computational_intensity(self):
        tps = {}
        for iclass in (IClass.HEAVY_128, IClass.LIGHT_256, IClass.HEAVY_256,
                       IClass.HEAVY_512):
            system = fresh()
            result = run_single_loop(system, 0, Loop(iclass, 40))
            tps[iclass] = result.throttled_ns
        ordered = [tps[c] for c in sorted(tps)]
        assert all(b > a for a, b in zip(ordered, ordered[1:]))

    def test_probe_tp_shrinks_after_heavier_sender(self):
        # Figure 10(b): the 512b_Heavy probe is throttled less when the
        # preceding loop was more intense.
        def probe_tp_after(iclass):
            system = fresh()
            sink = []

            def program():
                yield system.until(us_to_ns(5.0))
                yield system.execute(0, Loop(iclass, 40))
                sink.append((yield system.execute(0, Loop(IClass.HEAVY_512, 40))))
                return None

            system.spawn(program())
            system.run_until(us_to_ns(600.0))
            return sink[0].throttled_ns

        weak = probe_tp_after(IClass.HEAVY_128)
        strong = probe_tp_after(IClass.HEAVY_256)
        strongest = probe_tp_after(IClass.HEAVY_512)
        assert weak > strong > strongest

    def test_repeat_of_same_class_not_throttled_within_hysteresis(self):
        system = fresh()
        results = []

        def program():
            yield system.until(us_to_ns(5.0))
            results.append((yield system.execute(0, Loop(IClass.HEAVY_256, 30))))
            yield system.sleep(us_to_ns(50.0))  # well inside the 650 us window
            results.append((yield system.execute(0, Loop(IClass.HEAVY_256, 30))))
            return None

        system.spawn(program())
        system.run_until(us_to_ns(500.0))
        assert results[0].throttled_ns > 0
        assert results[1].throttled_ns == 0.0

    def test_reset_time_restores_throttling(self):
        # After ~650 us of quiet the guardband drops and the next PHI
        # throttles again (Section 4.1.2).
        system = fresh()
        results = []

        def program():
            yield system.until(us_to_ns(5.0))
            results.append((yield system.execute(0, Loop(IClass.HEAVY_256, 30))))
            yield system.sleep(us_to_ns(750.0))
            results.append((yield system.execute(0, Loop(IClass.HEAVY_256, 30))))
            return None

        system.spawn(program())
        system.run_until(us_to_ns(1600.0))
        assert results[1].throttled_ns > 0
        assert results[1].throttled_ns == pytest.approx(
            results[0].throttled_ns, rel=0.2)

    def test_check_due_while_its_class_runs_again_keeps_outside_grant(self):
        # The first loop's finish arms a check for ~663 us.  By then a
        # second HEAVY_128 loop keeps the class in the window, so that
        # check must not cut the HEAVY_512 grant an outside holder (a
        # state flush, say) raised meanwhile.
        system = fresh()
        granted = []

        def program():
            yield system.until(us_to_ns(5.0))
            yield system.execute(0, Loop(IClass.HEAVY_128, 30))
            yield system.until(us_to_ns(600.0))
            yield system.execute(0, Loop(IClass.HEAVY_128, 3000))

        def outside_holder():
            yield system.until(us_to_ns(620.0))
            system.pmu.request_up(0, IClass.HEAVY_512)
            for t_us in (660.0, 700.0):
                yield system.until(us_to_ns(t_us))
                granted.append(system.pmu.granted[0])

        system.spawn(program())
        system.spawn(outside_holder())
        system.run_until(us_to_ns(720.0))
        assert granted == [IClass.HEAVY_512, IClass.HEAVY_512]


class TestMultiThrottlingSMT:
    """Observation 2: co-located SMT threads are throttled together."""

    def test_sibling_scalar_loop_stretched_by_sender_phi(self):
        def sibling_elapsed(sender_class):
            system = fresh()
            sink = []

            def sender():
                yield system.until(us_to_ns(5.0))
                yield system.execute(system.thread_on(0, 0),
                                     Loop(sender_class, 40))

            def receiver():
                yield system.until(us_to_ns(5.0))
                sink.append((yield system.execute(
                    system.thread_on(0, 1), Loop(IClass.SCALAR_64, 40))))

            system.spawn(sender())
            system.spawn(receiver())
            system.run_until(us_to_ns(600.0))
            return sink[0].elapsed_ns

        baseline = sibling_elapsed(IClass.SCALAR_64)
        l1 = sibling_elapsed(IClass.HEAVY_128)
        l4 = sibling_elapsed(IClass.HEAVY_512)
        assert l1 > baseline
        assert l4 > l1

    def test_smt_sharing_halves_scalar_throughput(self):
        system = fresh()
        solo = run_single_loop(system, system.thread_on(0, 0),
                               Loop(IClass.SCALAR_64, 40))
        system2 = fresh()
        sink = []

        def worker(slot):
            def program():
                yield system2.until(us_to_ns(5.0))
                sink.append((yield system2.execute(
                    system2.thread_on(0, slot), Loop(IClass.SCALAR_64, 40))))
            return program()

        system2.spawn(worker(0))
        system2.spawn(worker(1))
        system2.run_until(us_to_ns(300.0))
        assert sink[0].elapsed_ns == pytest.approx(2 * solo.elapsed_ns, rel=0.05)

    def test_improved_throttling_spares_sibling(self):
        def sibling_elapsed(options):
            system = fresh(options=options)
            sink = []

            def sender():
                yield system.until(us_to_ns(5.0))
                yield system.execute(system.thread_on(0, 0),
                                     Loop(IClass.HEAVY_512, 40))

            def receiver():
                yield system.until(us_to_ns(5.0))
                sink.append((yield system.execute(
                    system.thread_on(0, 1), Loop(IClass.SCALAR_64, 40))))

            system.spawn(sender())
            system.spawn(receiver())
            system.run_until(us_to_ns(600.0))
            return sink[0]

        vanilla = sibling_elapsed(SystemOptions())
        improved = sibling_elapsed(SystemOptions(improved_throttling=True))
        assert improved.throttled_ns == 0.0
        assert improved.elapsed_ns < vanilla.elapsed_ns


class TestMultiThrottlingCores:
    """Observation 3: cross-core TP exacerbation via the shared VR."""

    def _receiver_tp(self, sender_class, options=SystemOptions(),
                     delay_ns=200.0):
        system = fresh(options=options)
        sink = []

        def sender():
            yield system.until(us_to_ns(5.0))
            yield system.execute(system.thread_on(0, 0),
                                 Loop(sender_class, 40))

        def receiver():
            yield system.until(us_to_ns(5.0) + delay_ns)
            sink.append((yield system.execute(
                system.thread_on(1, 0), Loop(IClass.HEAVY_128, 40))))

        system.spawn(sender())
        system.spawn(receiver())
        system.run_until(us_to_ns(600.0))
        return sink[0].throttled_ns

    def test_receiver_tp_grows_with_sender_intensity(self):
        tps = [self._receiver_tp(c) for c in
               (IClass.SCALAR_64, IClass.HEAVY_128, IClass.HEAVY_256,
                IClass.HEAVY_512)]
        assert all(b > a for a, b in zip(tps, tps[1:]))

    def test_exacerbation_requires_temporal_proximity(self):
        # Starting the receiver long after the sender's transition is
        # over removes the queueing effect.
        near = self._receiver_tp(IClass.HEAVY_512, delay_ns=200.0)
        far = self._receiver_tp(IClass.HEAVY_512, delay_ns=us_to_ns(100.0))
        assert near > far

    def test_per_core_vr_removes_cross_core_effect(self):
        options = SystemOptions(per_core_vr=True)
        scalar = self._receiver_tp(IClass.SCALAR_64, options=options)
        heavy = self._receiver_tp(IClass.HEAVY_512, options=options)
        assert heavy == pytest.approx(scalar, abs=100.0)


class TestSecureMode:
    def test_no_throttling_at_all(self):
        system = fresh(options=SystemOptions(secure_mode=True))
        result = run_single_loop(system, 0, Loop(IClass.HEAVY_512, 40))
        assert result.throttled_ns == 0.0

    def test_rail_starts_at_worst_case(self):
        secure = fresh(options=SystemOptions(secure_mode=True))
        baseline = secure.pmu.table.vcc(secure.pmu.freq_ghz)
        assert secure.vcc_at(0.0) > baseline  # guardband pre-applied

    def test_secure_mode_clamps_frequency_for_the_envelope(self):
        secure = fresh(options=SystemOptions(secure_mode=True))
        verdict = secure.pmu.table.limits.evaluate(
            secure.pmu.freq_ghz,
            [IClass.HEAVY_512] * secure.config.n_cores)
        assert verdict.ok


class TestSuspension:
    def test_suspend_stretches_execution(self):
        system = fresh()
        sink = []

        def program():
            yield system.until(us_to_ns(5.0))
            sink.append((yield system.execute(0, Loop(IClass.SCALAR_64, 40))))
            return None

        def interrupter():
            yield system.until(us_to_ns(7.0))
            system.suspend_thread(0)
            yield system.sleep(us_to_ns(10.0))
            system.resume_thread(0)
            return None

        system.spawn(program())
        system.spawn(interrupter())
        system.run_until(us_to_ns(300.0))
        expected = Loop(IClass.SCALAR_64, 40).unthrottled_ns(2.2)
        assert sink[0].elapsed_ns == pytest.approx(
            expected + us_to_ns(10.0), rel=0.05)

    def test_resume_without_suspend_rejected(self):
        system = fresh()
        with pytest.raises(SimulationError):
            system.resume_thread(0)

    def test_nested_suspensions(self):
        system = fresh()
        system.suspend_thread(0)
        system.suspend_thread(0)
        system.resume_thread(0)
        system.resume_thread(0)


class TestPowerGatesInSystem:
    def test_first_avx_loop_pays_wake_on_gated_parts(self):
        system = fresh()
        result = run_single_loop(system, 0, Loop(IClass.HEAVY_256, 5))
        assert result.gate_wake_ns == pytest.approx(12.0)

    def test_haswell_pays_no_wake(self):
        system = fresh(governor=3.0, config=haswell_i7_4770k())
        result = run_single_loop(system, 0, Loop(IClass.HEAVY_256, 5))
        assert result.gate_wake_ns == 0.0

    def test_haswell_tp_shorter_than_mbvr_parts(self):
        # Footnote 10: the FIVR part has a shorter throttling period.
        hsw = fresh(governor=3.0, config=haswell_i7_4770k())
        cfl = fresh(governor=3.0, config=coffee_lake_i7_9700k())
        tp_hsw = run_single_loop(hsw, 0, Loop(IClass.HEAVY_256, 60)).throttled_ns
        tp_cfl = run_single_loop(cfl, 0, Loop(IClass.HEAVY_256, 60)).throttled_ns
        assert tp_hsw < tp_cfl


class TestTraces:
    def test_throttle_trace_records_episode(self):
        system = fresh()
        run_single_loop(system, 0, Loop(IClass.HEAVY_256, 40))
        values = [v for _, v in system.throttle_traces[0].breakpoints()]
        assert 1 in values and 0 in values

    def test_icc_rises_with_activity(self):
        system = fresh()
        run_single_loop(system, 0, Loop(IClass.HEAVY_512, 40),
                        start_us=10.0, horizon_us=400.0)
        idle_icc = system.icc_at(us_to_ns(2.0))
        busy_icc = system.icc_at(us_to_ns(30.0))
        assert busy_icc > idle_icc

    def test_power_is_icc_times_vcc(self):
        system = fresh()
        run_single_loop(system, 0, Loop(IClass.HEAVY_256, 40))
        t = us_to_ns(20.0)
        assert system.power_at(t) == pytest.approx(
            system.icc_at(t) * system.vcc_at(t))

    def test_int_inputs_keep_numeric_traces_float(self):
        # A trace's first value fixes its type, so an int frequency or
        # ambient temperature must not start an int trace that the
        # later float values would then be rejected from.
        config = cannon_lake_i3_8121u().with_overrides(
            thermal=ThermalSpec(t_ambient_c=45))
        system = fresh(governor=3, config=config)
        run_single_loop(system, 0, Loop(IClass.HEAVY_512, 60))
        freqs = [v for _, v in system.freq_trace.breakpoints()]
        temps = [v for _, v in system.temp_trace.breakpoints()]
        assert len(freqs) > 1 and len(temps) > 1
        assert {type(v) for v in freqs + temps} == {float}

    def test_temperature_stays_far_below_tjmax(self):
        # Validates the 'not thermal' conclusion at this time scale.
        system = fresh()
        run_single_loop(system, 0, Loop(IClass.HEAVY_512, 60))
        temps = [v for _, v in system.temp_trace.breakpoints()]
        assert max(temps) < system.config.thermal.tj_max_c - 30.0


class TestGovernorsAndChannels:
    @pytest.mark.parametrize("freq", [1.0, 2.2, 3.0])
    def test_throttling_persists_across_frequencies(self, freq):
        # Section 5.7: the mechanism exists at any frequency / governor.
        system = fresh(governor=freq)
        result = run_single_loop(system, 0, Loop(IClass.HEAVY_256, 40))
        assert result.throttled_ns > us_to_ns(1.0)


class TestTraceProgram:
    def test_trace_program_runs_phases(self):
        from repro.isa.workload import PhaseTrace

        system = fresh()
        trace = PhaseTrace().append(IClass.SCALAR_64, us_to_ns(20.0)).append(
            IClass.HEAVY_256, us_to_ns(20.0))
        system.spawn(system.trace_program(0, trace))
        system.run_until(us_to_ns(400.0))
        labels = [v for _, v in system.activity_traces[0].breakpoints()]
        assert "64b" in labels and "256b_Heavy" in labels


class TestGovernorIntegration:
    def test_throttling_mechanism_survives_every_governor(self):
        # Section 5.7: no software frequency policy disables the hardware
        # throttle, from the lowest request to the highest.
        config = cannon_lake_i3_8121u()
        for freq in (config.min_freq_ghz, 2.2, config.max_turbo_ghz):
            system = System(config, governor_freq_ghz=freq)
            result = run_single_loop(system, 0, Loop(IClass.HEAVY_256, 60))
            assert result.throttled_ns > us_to_ns(1.0), freq


class TestMemory:
    def test_finished_loops_leave_no_cyclic_garbage(self):
        # Each finished loop must be freed by reference counting: an
        # _Activity or EventHandle that only the cyclic GC can reclaim
        # shows up in gc.garbage under DEBUG_SAVEALL.
        was_enabled = gc.isenabled()
        debug = gc.get_debug()
        gc.collect()
        gc.disable()
        try:
            system = System(cannon_lake_i3_8121u())
            report = IccThreadCovert(system).transfer(b"\x5a\xc3\x0f\x3c")
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            cyclic = [type(obj).__name__ for obj in gc.garbage
                      if isinstance(obj, (_Activity, EventHandle))]
            assert report.ber == 0.0
            assert system.engine.events_run > 0  # keep system alive
            assert cyclic == []
        finally:
            gc.set_debug(debug)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()
