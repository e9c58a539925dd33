"""Workload descriptions: instruction loops and multi-phase traces.

The paper's micro-benchmarks (customised from Agner Fog's measurement
library, Section 5.1) are tight loops of one instruction class.  Its macro
experiments run phase traces: code alternating between Non-AVX, AVX2 and
AVX512 phases (Figures 6, 7 and 9), SPEC's 454.calculix auto-vectorised to
AVX2 (Figure 6b), and 7-zip as a realistic noisy neighbour (Section 6.3).

This module provides data types for both granularities:

* :class:`Loop` — ``iterations`` repetitions of a block of instructions of
  one :class:`~repro.isa.instructions.IClass`.
* :class:`Phase` / :class:`PhaseTrace` — a wall-time phase of one class,
  and a schedule of such phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

from repro.errors import ConfigError, bounded, check_fields
from repro.isa.instructions import IClass
from repro.units import ms_to_ns, us_to_ns


@dataclass(frozen=True)
class Loop:
    """A tight loop: ``iterations`` x ``block_instructions`` of ``iclass``.

    The Agner-Fog-style benchmark bodies in the paper are ~300 instruction
    blocks (e.g. 300 VMULPD) repeated for a few thousand iterations.
    """

    iclass: IClass
    iterations: int = bounded(ge=1)
    block_instructions: int = bounded(300, ge=1)

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def total_instructions(self) -> int:
        """Total dynamic instruction count of the loop."""
        return self.iterations * self.block_instructions

    def unthrottled_cycles(self) -> float:
        """Core cycles the loop takes when never throttled."""
        return self.total_instructions / self.iclass.ipc

    def unthrottled_ns(self, freq_ghz: float) -> float:
        """Wall time (ns) of the loop when never throttled at ``freq_ghz``."""
        return self.unthrottled_cycles() / freq_ghz


def uniform_loop(iclass: IClass, duration_us: float, freq_ghz: float,
                 block_instructions: int = 300) -> Loop:
    """Build a loop of ``iclass`` sized to last about ``duration_us``.

    Sizing assumes unthrottled execution at ``freq_ghz``; throttling will
    stretch the realised wall time, which is exactly the observable the
    covert channels measure.
    """
    if duration_us <= 0:
        raise ConfigError(f"duration must be positive, got {duration_us} us")
    cycles = us_to_ns(duration_us) * freq_ghz
    per_iteration = block_instructions / iclass.ipc
    iterations = max(1, int(round(cycles / per_iteration)))
    return Loop(iclass, iterations, block_instructions)


@dataclass(frozen=True)
class Phase:
    """A wall-clock phase during which a thread runs one class of code."""

    iclass: IClass
    duration_ns: float

    def __post_init__(self) -> None:
        if self.duration_ns <= 0:
            raise ConfigError(f"phase duration must be positive, got {self.duration_ns}")


@dataclass
class PhaseTrace:
    """An ordered schedule of :class:`Phase` objects for one thread."""

    phases: List[Phase] = field(default_factory=list)
    name: str = "trace"

    def append(self, iclass: IClass, duration_ns: float) -> "PhaseTrace":
        """Append a phase and return self (chainable)."""
        self.phases.append(Phase(iclass, duration_ns))
        return self

    @property
    def duration_ns(self) -> float:
        """Total wall time of the trace."""
        return sum(phase.duration_ns for phase in self.phases)

    def __iter__(self) -> Iterator[Phase]:
        return iter(self.phases)

    def __len__(self) -> int:
        return len(self.phases)

    def class_at(self, t_ns: float) -> Optional[IClass]:
        """The class scheduled at offset ``t_ns``, or None past the end."""
        elapsed = 0.0
        for phase in self.phases:
            elapsed += phase.duration_ns
            if t_ns < elapsed:
                return phase.iclass
        return None


def avx2_phase_program(scalar_ms: float = 400.0, avx_ms: float = 1200.0,
                       trailer_ms: float = 400.0) -> PhaseTrace:
    """Scalar -> AVX2-heavy -> scalar trace, as in Figure 6(a).

    The paper staggers this program across two cores (core 1 starts at
    0.4 s, core 0 at 0.8 s); callers stagger by prepending scalar time.
    """
    trace = PhaseTrace(name="avx2_phase_program")
    trace.append(IClass.SCALAR_64, ms_to_ns(scalar_ms))
    trace.append(IClass.HEAVY_256, ms_to_ns(avx_ms))
    trace.append(IClass.SCALAR_64, ms_to_ns(trailer_ms))
    return trace


def calculix_like_trace(total_ms: float = 2000.0, avx_fraction: float = 0.45,
                        mean_phase_us: float = 400.0,
                        seed: int = 454) -> PhaseTrace:
    """Synthetic stand-in for SPEC CPU2006 454.calculix with AVX2.

    454.calculix auto-vectorised to AVX2 alternates between scalar solver
    bookkeeping and vectorised element loops.  Figure 6(b) only relies on
    that alternation: the rail voltage steps up during AVX2 phases and
    back down during scalar phases.  We draw exponential phase lengths
    around ``mean_phase_us`` and pick AVX2 phases with probability
    ``avx_fraction``.
    """
    if not 0.0 < avx_fraction < 1.0:
        raise ConfigError(f"avx_fraction must be in (0, 1), got {avx_fraction}")
    import numpy as np
    rng = np.random.default_rng(seed)
    trace = PhaseTrace(name="calculix_like")
    remaining = ms_to_ns(total_ms)
    use_avx = False
    while remaining > 0:
        duration = min(remaining, us_to_ns(float(rng.exponential(mean_phase_us)) + 20.0))
        # Alternate with bias so the realised AVX share tracks avx_fraction.
        if use_avx:
            trace.append(IClass.HEAVY_256, duration)
        else:
            trace.append(IClass.SCALAR_64, duration)
        use_avx = rng.random() < (avx_fraction if not use_avx else 1.0 - avx_fraction)
        remaining -= duration
    return trace


def sevenzip_like_trace(total_ms: float = 1000.0, seed: int = 7,
                        mean_scalar_us: float = 3000.0,
                        mean_burst_us: float = 40.0) -> PhaseTrace:
    """Synthetic 7-zip-style compressor trace (Section 6.3).

    7-zip uses AVX2 (never AVX-512) in bursts for match finding, between
    long scalar entropy-coding stretches.  Bursts are short (tens of us)
    and sparse, which is why the paper measures a low BER (< 0.07) when
    7-zip runs beside the covert channel.  ``mean_scalar_us`` and
    ``mean_burst_us`` tune how aggressive the compressor phase mix is.
    """
    if mean_scalar_us <= 0 or mean_burst_us <= 0:
        raise ConfigError("phase means must be positive")
    import numpy as np
    rng = np.random.default_rng(seed)
    trace = PhaseTrace(name="sevenzip_like")
    remaining = ms_to_ns(total_ms)
    while remaining > 0:
        scalar = min(remaining,
                     us_to_ns(float(rng.exponential(mean_scalar_us)) + 200.0))
        trace.append(IClass.SCALAR_64, scalar)
        remaining -= scalar
        if remaining <= 0:
            break
        burst = min(remaining,
                    us_to_ns(float(rng.exponential(mean_burst_us)) + 5.0))
        trace.append(IClass.HEAVY_256, burst)
        remaining -= burst
    return trace


def power_virus(duration_ms: float = 10.0, width_bits: int = 512) -> PhaseTrace:
    """Maximum-Cdyn workload (the paper's 'power-virus', Section 2)."""
    iclass = {
        128: IClass.HEAVY_128,
        256: IClass.HEAVY_256,
        512: IClass.HEAVY_512,
    }.get(width_bits)
    if iclass is None:
        raise ConfigError(f"power virus width must be 128/256/512, got {width_bits}")
    trace = PhaseTrace(name=f"power_virus_{width_bits}")
    trace.append(iclass, ms_to_ns(duration_ms))
    return trace


def browser_like_trace(total_ms: float = 1000.0, seed: int = 80) -> PhaseTrace:
    """Browser-style neighbour: bursty scalar work, light SIMD sprinkles.

    Rendering and JS engines are overwhelmingly scalar with short
    128-bit light phases (string/layout SIMD); they touch no heavy FP
    vectors, so they shift the rail rarely and weakly — a benign
    neighbour for the covert channels.
    """
    import numpy as np
    rng = np.random.default_rng(seed)
    trace = PhaseTrace(name="browser_like")
    remaining = ms_to_ns(total_ms)
    while remaining > 0:
        busy = min(remaining, us_to_ns(float(rng.exponential(800.0)) + 50.0))
        trace.append(IClass.SCALAR_64, busy)
        remaining -= busy
        if remaining <= 0:
            break
        simd = min(remaining, us_to_ns(float(rng.exponential(30.0)) + 5.0))
        trace.append(IClass.LIGHT_128, simd)
        remaining -= simd
    return trace


def ml_inference_like_trace(total_ms: float = 1000.0, period_ms: float = 12.0,
                            burst_ms: float = 6.0,
                            width_bits: int = 512,
                            seed: int = 81) -> PhaseTrace:
    """ML-inference neighbour: periodic heavy vector bursts.

    A model served at a fixed request rate runs dense GEMM phases —
    sustained heavy AVX — separated by pre/post-processing gaps.  The
    worst realistic neighbour for IChannels: its bursts carry the
    highest guardband level and recur faster than the reset-time.
    """
    if period_ms <= burst_ms:
        raise ConfigError("the inference period must exceed the burst")
    iclass = IClass.HEAVY_512 if width_bits >= 512 else IClass.HEAVY_256
    import numpy as np
    rng = np.random.default_rng(seed)
    trace = PhaseTrace(name="ml_inference_like")
    remaining = ms_to_ns(total_ms)
    while remaining > 0:
        jitter = float(rng.uniform(0.9, 1.1))
        gap = min(remaining, ms_to_ns((period_ms - burst_ms) * jitter))
        trace.append(IClass.SCALAR_64, gap)
        remaining -= gap
        if remaining <= 0:
            break
        burst = min(remaining, ms_to_ns(burst_ms * jitter))
        trace.append(iclass, burst)
        remaining -= burst
    return trace


def video_codec_like_trace(total_ms: float = 1000.0, fps: float = 30.0,
                           encode_share: float = 0.4,
                           seed: int = 82) -> PhaseTrace:
    """Video-codec neighbour: AVX2 encode work clocked at the frame rate.

    Encoders burn 256-bit SIMD for a fixed share of each frame interval
    — a *periodic* heavy neighbour, in between the benign browser and
    the hostile ML server.
    """
    if not 0.0 < encode_share < 1.0:
        raise ConfigError(f"encode share must be in (0, 1), got {encode_share}")
    frame_ms = 1000.0 / fps
    import numpy as np
    rng = np.random.default_rng(seed)
    trace = PhaseTrace(name="video_codec_like")
    remaining = ms_to_ns(total_ms)
    while remaining > 0:
        jitter = float(rng.uniform(0.95, 1.05))
        encode = min(remaining, ms_to_ns(frame_ms * encode_share * jitter))
        trace.append(IClass.HEAVY_256, encode)
        remaining -= encode
        if remaining <= 0:
            break
        idle = min(remaining, ms_to_ns(frame_ms * (1.0 - encode_share) * jitter))
        trace.append(IClass.SCALAR_64, idle)
        remaining -= idle
    return trace


def random_phi_schedule(total_ms: float, events_per_second: float,
                        burst_us: float = 20.0,
                        classes: Sequence[IClass] = (
                            IClass.HEAVY_128, IClass.LIGHT_256,
                            IClass.HEAVY_256, IClass.HEAVY_512),
                        seed: int = 14) -> PhaseTrace:
    """Scalar trace with Poisson PHI bursts at random levels (Fig. 14c).

    Models the synthetic 'App' of Section 6.3 that injects PHIs with a
    random power level at a configurable rate (10 - 10,000 per second).
    """
    if events_per_second < 0:
        raise ConfigError(f"event rate must be >= 0, got {events_per_second}")
    import numpy as np
    rng = np.random.default_rng(seed)
    trace = PhaseTrace(name=f"app_phi_{events_per_second:g}")
    total_ns = ms_to_ns(total_ms)
    if events_per_second == 0:
        trace.append(IClass.SCALAR_64, total_ns)
        return trace
    mean_gap_ns = 1e9 / events_per_second
    elapsed = 0.0
    while elapsed < total_ns:
        gap = float(rng.exponential(mean_gap_ns)) + 1.0
        gap = min(gap, total_ns - elapsed)
        trace.append(IClass.SCALAR_64, gap)
        elapsed += gap
        if elapsed >= total_ns:
            break
        burst = min(us_to_ns(burst_us), total_ns - elapsed)
        if burst <= 0:
            break
        trace.append(IClass(classes[rng.integers(len(classes))]), burst)
        elapsed += burst
    return trace
