"""Workload loops and phase traces."""

import pytest

from repro.errors import ConfigError
from repro.isa import IClass, Loop, PhaseTrace
from repro.isa.workload import (
    avx2_phase_program,
    calculix_like_trace,
    power_virus,
    random_phi_schedule,
    sevenzip_like_trace,
    uniform_loop,
)
from repro.units import ms_to_ns, us_to_ns


class TestLoop:
    def test_total_instructions(self):
        loop = Loop(IClass.HEAVY_256, iterations=10, block_instructions=300)
        assert loop.total_instructions == 3000

    def test_unthrottled_cycles_uses_class_ipc(self):
        loop = Loop(IClass.SCALAR_64, 10)  # ipc 2
        assert loop.unthrottled_cycles() == pytest.approx(1500.0)

    def test_unthrottled_ns_at_one_ghz_equals_cycles(self):
        loop = Loop(IClass.HEAVY_256, 10)
        assert loop.unthrottled_ns(1.0) == pytest.approx(loop.unthrottled_cycles())

    def test_unthrottled_ns_scales_inversely_with_freq(self):
        loop = Loop(IClass.HEAVY_256, 10)
        assert loop.unthrottled_ns(2.0) == pytest.approx(loop.unthrottled_ns(1.0) / 2)

    def test_zero_iterations_rejected(self):
        with pytest.raises(ConfigError):
            Loop(IClass.HEAVY_256, 0)

    def test_zero_block_rejected(self):
        with pytest.raises(ConfigError):
            Loop(IClass.HEAVY_256, 1, block_instructions=0)


class TestUniformLoop:
    def test_sized_to_duration(self):
        loop = uniform_loop(IClass.HEAVY_256, duration_us=100.0, freq_ghz=2.0)
        assert loop.unthrottled_ns(2.0) == pytest.approx(us_to_ns(100.0), rel=0.02)

    def test_scalar_loop_packs_more_instructions(self):
        scalar = uniform_loop(IClass.SCALAR_64, 100.0, 2.0)
        heavy = uniform_loop(IClass.HEAVY_256, 100.0, 2.0)
        assert scalar.total_instructions > heavy.total_instructions

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ConfigError):
            uniform_loop(IClass.HEAVY_256, 0.0, 2.0)

    def test_minimum_one_iteration(self):
        loop = uniform_loop(IClass.HEAVY_256, 0.001, 1.0)
        assert loop.iterations >= 1


class TestPhaseTrace:
    def test_append_chains(self):
        trace = PhaseTrace().append(IClass.SCALAR_64, 10.0).append(
            IClass.HEAVY_256, 20.0)
        assert len(trace) == 2

    def test_duration_sums_phases(self):
        trace = PhaseTrace().append(IClass.SCALAR_64, 10.0).append(
            IClass.HEAVY_256, 20.0)
        assert trace.duration_ns == pytest.approx(30.0)

    def test_zero_duration_phase_rejected(self):
        with pytest.raises(ConfigError):
            PhaseTrace().append(IClass.SCALAR_64, 0.0)


class TestGenerators:
    def test_avx2_phase_program_shape(self):
        trace = avx2_phase_program()
        classes = [p.iclass for p in trace]
        assert classes == [IClass.SCALAR_64, IClass.HEAVY_256, IClass.SCALAR_64]

    def test_calculix_trace_alternates_and_fills_duration(self):
        trace = calculix_like_trace(total_ms=5.0)
        assert trace.duration_ns == pytest.approx(ms_to_ns(5.0), rel=1e-6)
        used = {p.iclass for p in trace}
        assert IClass.HEAVY_256 in used and IClass.SCALAR_64 in used

    def test_calculix_rejects_bad_fraction(self):
        with pytest.raises(ConfigError):
            calculix_like_trace(avx_fraction=1.5)

    def test_calculix_deterministic_per_seed(self):
        a = calculix_like_trace(total_ms=2.0, seed=7)
        b = calculix_like_trace(total_ms=2.0, seed=7)
        assert [(p.iclass, p.duration_ns) for p in a] == [
            (p.iclass, p.duration_ns) for p in b]

    def test_sevenzip_uses_avx2_but_never_avx512(self):
        trace = sevenzip_like_trace(total_ms=20.0)
        widths = {p.iclass.width_bits for p in trace}
        assert 512 not in widths
        assert 256 in widths

    def test_sevenzip_mostly_scalar(self):
        trace = sevenzip_like_trace(total_ms=20.0)
        scalar = sum(p.duration_ns for p in trace if p.iclass == IClass.SCALAR_64)
        assert scalar / trace.duration_ns > 0.8

    def test_power_virus_is_single_heavy_phase(self):
        trace = power_virus(duration_ms=1.0, width_bits=512)
        assert len(trace) == 1
        assert trace.phases[0].iclass == IClass.HEAVY_512

    def test_power_virus_rejects_bad_width(self):
        with pytest.raises(ConfigError):
            power_virus(width_bits=64)

    def test_random_phi_schedule_rate_zero_is_pure_scalar(self):
        trace = random_phi_schedule(total_ms=1.0, events_per_second=0.0)
        assert all(p.iclass == IClass.SCALAR_64 for p in trace)

    def test_random_phi_schedule_has_bursts_at_high_rate(self):
        trace = random_phi_schedule(total_ms=10.0, events_per_second=5000.0)
        bursts = [p for p in trace if p.iclass.is_phi]
        assert len(bursts) > 10

    def test_random_phi_schedule_rejects_negative_rate(self):
        with pytest.raises(ConfigError):
            random_phi_schedule(total_ms=1.0, events_per_second=-1.0)

    def test_random_phi_burst_levels_come_from_requested_classes(self):
        classes = (IClass.HEAVY_128, IClass.HEAVY_512)
        trace = random_phi_schedule(total_ms=10.0, events_per_second=2000.0,
                                    classes=classes)
        burst_classes = {p.iclass for p in trace if p.iclass.is_phi}
        assert burst_classes <= set(classes)


class TestWorkloadZoo:
    def test_browser_is_mostly_scalar_with_light_simd(self):
        from repro.isa.workload import browser_like_trace

        trace = browser_like_trace(total_ms=50.0)
        classes = {p.iclass for p in trace}
        assert classes <= {IClass.SCALAR_64, IClass.LIGHT_128}
        scalar = sum(p.duration_ns for p in trace
                     if p.iclass == IClass.SCALAR_64)
        assert scalar / trace.duration_ns > 0.9

    def test_ml_inference_runs_heavy_512_bursts(self):
        from repro.isa.workload import ml_inference_like_trace

        trace = ml_inference_like_trace(total_ms=100.0)
        burst_classes = {p.iclass for p in trace if p.iclass.is_phi}
        assert burst_classes == {IClass.HEAVY_512}
        heavy = sum(p.duration_ns for p in trace if p.iclass.is_phi)
        assert 0.3 < heavy / trace.duration_ns < 0.7

    def test_ml_inference_width_fallback(self):
        from repro.isa.workload import ml_inference_like_trace

        trace = ml_inference_like_trace(total_ms=50.0, width_bits=256)
        burst_classes = {p.iclass for p in trace if p.iclass.is_phi}
        assert burst_classes == {IClass.HEAVY_256}

    def test_ml_inference_validates_period(self):
        from repro.isa.workload import ml_inference_like_trace

        with pytest.raises(ConfigError):
            ml_inference_like_trace(period_ms=5.0, burst_ms=6.0)

    def test_video_codec_clocks_at_frame_rate(self):
        from repro.isa.workload import video_codec_like_trace

        trace = video_codec_like_trace(total_ms=500.0, fps=30.0)
        encodes = [p for p in trace if p.iclass == IClass.HEAVY_256]
        # ~15 frames in 500 ms at 30 fps.
        assert 12 <= len(encodes) <= 18

    def test_video_codec_validates_share(self):
        from repro.isa.workload import video_codec_like_trace

        with pytest.raises(ConfigError):
            video_codec_like_trace(encode_share=1.5)

    def test_zoo_traces_fill_requested_duration(self):
        from repro.isa.workload import (
            browser_like_trace,
            ml_inference_like_trace,
            video_codec_like_trace,
        )
        from repro.units import ms_to_ns

        for factory in (browser_like_trace, ml_inference_like_trace,
                        video_codec_like_trace):
            trace = factory(total_ms=40.0)
            assert trace.duration_ns == pytest.approx(ms_to_ns(40.0),
                                                      rel=1e-6)
