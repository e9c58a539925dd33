"""Noise injectors and the instruction-class side channel."""

import pytest

from repro import IClass, System
from repro.core import ChannelLocation, IccThreadCovert, InstructionClassSpy
from repro.errors import ConfigError
from repro.isa.workload import random_phi_schedule
from repro.scenarios import WorkloadSpec
from repro.soc.config import cannon_lake_i3_8121u, coffee_lake_i7_9700k
from repro.soc.noise import NoiseConfig, attach_system_noise, attach_trace
from repro.units import ms_to_ns, us_to_ns


class TestNoiseConfig:
    def test_total_rate(self):
        config = NoiseConfig(interrupt_rate_per_s=400.0,
                             ctx_switch_rate_per_s=100.0)
        assert config.total_event_rate_per_s == 500.0

    def test_rejects_negative_rates(self):
        with pytest.raises(ConfigError):
            NoiseConfig(interrupt_rate_per_s=-1.0)

    def test_rejects_nonpositive_service(self):
        with pytest.raises(ConfigError):
            NoiseConfig(interrupt_mean_us=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True],
                             ids=["nan", "inf", "bool"])
    def test_rejects_non_finite_or_bool_rate(self, value):
        with pytest.raises(ConfigError, match="interrupt_rate_per_s"):
            NoiseConfig(interrupt_rate_per_s=value)


class TestSystemNoise:
    def test_noise_preempts_threads(self):
        system = System(cannon_lake_i3_8121u())
        attach_system_noise(system, [0],
                            NoiseConfig(interrupt_rate_per_s=1_000_000.0,
                                        ctx_switch_rate_per_s=0.0),
                            horizon_ns=ms_to_ns(1.0), seed=3)
        from repro.isa import Loop

        sink = []

        def program():
            yield system.until(us_to_ns(5.0))
            sink.append((yield system.execute(0, Loop(IClass.SCALAR_64, 40))))

        system.spawn(program())
        system.run_until(ms_to_ns(2.0))
        expected = Loop(IClass.SCALAR_64, 40).unthrottled_ns(2.2)
        assert sink[0].elapsed_ns > expected * 1.2

    def test_zero_rate_noise_is_silent(self):
        system = System(cannon_lake_i3_8121u())
        attach_system_noise(system, [0],
                            NoiseConfig(interrupt_rate_per_s=0.0,
                                        ctx_switch_rate_per_s=0.0),
                            horizon_ns=ms_to_ns(1.0))
        system.run_until(ms_to_ns(1.0))
        assert system.engine.events_run < 10

    def test_bad_horizon_rejected(self):
        system = System(cannon_lake_i3_8121u())
        with pytest.raises(ConfigError):
            attach_system_noise(system, [0], NoiseConfig(), horizon_ns=0.0)

    def test_noise_is_deterministic_per_seed(self):
        def run(seed):
            system = System(cannon_lake_i3_8121u())
            attach_system_noise(system, [0], NoiseConfig(),
                                horizon_ns=ms_to_ns(2.0), seed=seed)
            system.run_until(ms_to_ns(2.0))
            return system.engine.events_run

        assert run(1) == run(1)


class TestConcurrentApp:
    def test_app_raises_channel_ber_at_high_rate(self):
        quiet = System(cannon_lake_i3_8121u())
        clean = IccThreadCovert(quiet).transfer(b"\x5a\x3c\xf0\x69")

        noisy = System(cannon_lake_i3_8121u())
        attach_trace(noisy, noisy.thread_on(1),
                     random_phi_schedule(80.0, 10_000.0, seed=5))
        dirty = IccThreadCovert(noisy).transfer(b"\x5a\x3c\xf0\x69")
        assert clean.ber == 0.0
        assert dirty.ber >= clean.ber

    def test_app_classes_clamped_to_part_width(self):
        system = System(coffee_lake_i7_9700k())
        app = WorkloadSpec("phi_schedule", duration_ms=5.0, seed=14,
                           rate_per_s=100.0)
        attach_trace(system, system.thread_on(1),
                     app.build_trace(system.config.max_vector_bits))
        system.run_until(ms_to_ns(1.0))  # must not raise about AVX-512


class TestInstructionClassSpy:
    def test_smt_spy_recovers_victim_classes(self):
        system = System(cannon_lake_i3_8121u())
        spy = InstructionClassSpy(system, ChannelLocation.ACROSS_SMT)
        victim = [IClass.SCALAR_64, IClass.HEAVY_256, IClass.HEAVY_512,
                  IClass.HEAVY_128]
        report = spy.spy(victim)
        assert report.accuracy >= 0.75

    def test_cross_core_spy_recovers_phi_classes(self):
        system = System(cannon_lake_i3_8121u())
        spy = InstructionClassSpy(system, ChannelLocation.ACROSS_CORES)
        victim = [IClass.HEAVY_128, IClass.HEAVY_512, IClass.HEAVY_256]
        report = spy.spy(victim)
        assert report.accuracy >= 2 / 3

    def test_same_thread_location_rejected(self):
        system = System(cannon_lake_i3_8121u())
        with pytest.raises(ConfigError):
            InstructionClassSpy(system, ChannelLocation.SAME_THREAD)

    def test_smt_spy_needs_smt(self):
        system = System(coffee_lake_i7_9700k())
        with pytest.raises(ConfigError):
            InstructionClassSpy(system, ChannelLocation.ACROSS_SMT)

    def test_victim_width_validated(self):
        system = System(coffee_lake_i7_9700k())
        spy = InstructionClassSpy(system, ChannelLocation.ACROSS_CORES)
        with pytest.raises(ConfigError):
            spy.spy([IClass.HEAVY_512])

    def test_report_accuracy_empty(self):
        from repro.core.side_channel import SpyReport

        assert SpyReport([], [], []).accuracy == 0.0


class TestKeyDependentVictim:
    def test_phases_map_bits_to_classes(self):
        from repro.core.side_channel import KeyDependentVictim

        victim = KeyDependentVictim()
        phases = victim.phases_for_key([1, 0, 1])
        assert phases == [IClass.HEAVY_256, IClass.SCALAR_64,
                          IClass.HEAVY_256]

    def test_recover_key_inverts_phases(self):
        from repro.core.side_channel import KeyDependentVictim

        victim = KeyDependentVictim()
        key = [1, 0, 0, 1, 1, 0]
        assert victim.recover_key(victim.phases_for_key(key)) == key

    def test_recovery_tolerates_class_confusion(self):
        from repro.core.side_channel import KeyDependentVictim

        victim = KeyDependentVictim()
        # A misclassified-but-nearby class still resolves to the right bit.
        inferred = [IClass.HEAVY_512, IClass.LIGHT_128]
        assert victim.recover_key(inferred) == [1, 0]

    def test_validation(self):
        from repro.core.side_channel import KeyDependentVictim

        with pytest.raises(ConfigError):
            KeyDependentVictim(one_class=IClass.SCALAR_64,
                               zero_class=IClass.SCALAR_64)
        with pytest.raises(ConfigError):
            KeyDependentVictim().phases_for_key([2])
        with pytest.raises(ConfigError):
            KeyDependentVictim().phases_for_key([])

    def test_smt_spy_steals_a_key(self):
        from repro.core.side_channel import KeyDependentVictim

        system = System(cannon_lake_i3_8121u())
        spy = InstructionClassSpy(system, ChannelLocation.ACROSS_SMT)
        victim = KeyDependentVictim()
        key = [1, 0, 1, 1, 0, 0, 1, 0]
        assert spy.steal_key(victim, key) == key

    def test_cross_core_spy_steals_a_key(self):
        from repro.core.side_channel import KeyDependentVictim

        system = System(cannon_lake_i3_8121u())
        spy = InstructionClassSpy(system, ChannelLocation.ACROSS_CORES)
        victim = KeyDependentVictim(one_class=IClass.HEAVY_512,
                                    zero_class=IClass.HEAVY_128)
        key = [0, 1, 1, 0, 1]
        assert spy.steal_key(victim, key) == key
