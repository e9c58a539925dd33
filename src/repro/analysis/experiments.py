"""One runner per paper artifact (Figures 6-14, Tables 1-2).

Each function builds fresh simulated systems, drives the same workloads
the paper describes, and returns a small result dataclass with the
series/rows the corresponding figure or table plots.  The benchmark
harnesses under ``benchmarks/`` print these; EXPERIMENTS.md records the
paper-vs-measured comparison.

The covert-channel sweep points (Figure 12's channels, Figures 13 and
14 and the resilience sweep) start from the registered
``baseline_{thread,smt,cores}`` :class:`~repro.scenarios.ScenarioSpec`
values, through the same system builder and channel factory the
scenario library uses.

Rail traces are captured through the vectorized signal exports
(:meth:`System.vcc_signal`), so the simulated DAQ evaluates each sample
grid in one call instead of one rail lookup per sample.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import AdaptiveConfig, CovertSession, SessionConfig
from repro.core.baselines import DFSCovert, NetSpectreGadget, PowerT, TurboCC
from repro.errors import ConfigError, ProtocolError
from repro.isa.instructions import IClass
from repro.isa.workload import Loop, calculix_like_trace, uniform_loop
from repro.measure.daq import DAQCard
from repro.measure.trace import SampleSeries
from repro.microarch.counters import normalized_undelivered
from repro.microarch.pipeline import CorePipeline, PipelineConfig
from repro.mitigations.report import MitigationReport, evaluate_all
from repro.runner import SweepRunner
from repro.scenarios import (
    CHANNEL_KINDS,
    NoiseSpec,
    WorkloadSpec,
    baseline_channel,
    get_spec,
    run_scenario,
)
from repro.soc.config import (
    ProcessorConfig,
    cannon_lake_i3_8121u,
    coffee_lake_i7_9700k,
    haswell_i7_4770k,
)
from repro.soc.noise import NoiseConfig, attach_system_noise
from repro.soc.system import System
from repro.units import ms_to_ns, ns_to_us, us_to_ns, v_to_mv


def _run_loop_program(system: System, thread_id: int, loop: Loop,
                      start_ns: float, sink: List) -> None:
    """Spawn a program that runs one loop at ``start_ns`` and records it."""

    def program() -> Generator:
        yield system.until(start_ns)
        result = yield system.execute(thread_id, loop)
        sink.append(result)
        return None

    system.spawn(program(), name=f"loop_{loop.iclass.label}_t{thread_id}")


# ---------------------------------------------------------------------------
# Figure 6 — di/dt guardband steps and per-phase voltage tracking
# ---------------------------------------------------------------------------


@dataclass
class Fig6Result:
    """Series and extracted steps for Figure 6."""

    vcc_samples: SampleSeries
    freq_ghz_start: float
    freq_ghz_end: float
    vcc_start_mv: float
    step_core1_mv: float
    step_core0_mv: float
    return_mv: float
    calculix_vcc: SampleSeries
    calculix_phases: int


def fig6_voltage_steps(phase_scale_us: float = 300.0) -> Fig6Result:
    """Two Coffee Lake cores start/stop AVX2 in a staggered pattern.

    The paper uses 0.4 s phases; the simulation compresses each to
    ``phase_scale_us`` (the rail settles in tens of microseconds, so
    nothing is lost).  Expected: ~8-9 mV per core joining AVX2, voltage
    returning to start afterwards, frequency flat at 2 GHz.
    """
    config = coffee_lake_i7_9700k()
    system = System(config, governor_freq_ghz=2.0)
    unit = us_to_ns(phase_scale_us)
    sink: List = []
    # core 1: AVX2 from 1.0 to 4.0 units; core 0: AVX2 from 2.0 to 4.25.
    avx1 = Loop(IClass.HEAVY_256, int(3.0 * unit * 2.0 / 300 / 4) + 1)
    avx0 = Loop(IClass.HEAVY_256, int(2.25 * unit * 2.0 / 300 / 4) + 1)
    _run_loop_program(system, system.thread_on(1), avx1, 1.0 * unit, sink)
    _run_loop_program(system, system.thread_on(0), avx0, 2.0 * unit, sink)
    horizon = 7.0 * unit + us_to_ns(800.0)  # include the hysteresis release
    freq_start = system.pmu.freq_ghz
    system.run_until(horizon)
    freq_end = system.pmu.freq_ghz

    daq = DAQCard()
    vcc = daq.sample(system.vcc_signal(), 0.0, horizon,
                     sample_rate_hz=2e6, name="vcc")

    def settled(unit_time: float) -> float:
        return system.vcc_at(unit_time * unit)

    v_base = settled(0.9)
    v_one = settled(1.9)      # core 1 running AVX2
    v_two = settled(3.9)      # both cores running AVX2
    v_back = system.vcc_at(horizon - 1.0)

    calc_system = System(config, governor_freq_ghz=2.0)
    trace = calculix_like_trace(total_ms=2.0, seed=454)
    calc_system.spawn(calc_system.trace_program(calc_system.thread_on(0), trace),
                      name="calculix0")
    calc_horizon = ms_to_ns(2.4)
    calc_system.run_until(calc_horizon)
    calc_vcc = daq.sample(calc_system.vcc_signal(), 0.0, calc_horizon,
                          sample_rate_hz=2e6, name="vcc_calculix")

    return Fig6Result(
        vcc_samples=vcc,
        freq_ghz_start=freq_start,
        freq_ghz_end=freq_end,
        vcc_start_mv=v_to_mv(v_base),
        step_core1_mv=v_to_mv(v_one - v_base),
        step_core0_mv=v_to_mv(v_two - v_one),
        return_mv=v_to_mv(v_back - v_base),
        calculix_vcc=calc_vcc,
        calculix_phases=len(trace),
    )


# ---------------------------------------------------------------------------
# Figure 7 — Icc_max / Vcc_max limit protection
# ---------------------------------------------------------------------------


@dataclass
class Fig7OperatingPoint:
    """One bar group of Figure 7(a)."""

    system: str
    freq_req_ghz: float
    workload: str
    vcc_projected: float
    icc_projected: float
    vcc_max: float
    icc_max: float
    vcc_violation: bool
    icc_violation: bool
    freq_realized_ghz: float


@dataclass
class Fig7Result:
    """Operating points (a) and the phase timeline (b)."""

    points: List[Fig7OperatingPoint]
    timeline_phases: List[str]
    timeline_freq: List[Tuple[float, float]]
    timeline_vcc: SampleSeries
    timeline_temp: List[Tuple[float, float]]
    tj_max_c: float
    temp_max_c: float


def _operating_point(config: ProcessorConfig, freq: float, n_cores: int,
                     iclass: IClass, label: str) -> Fig7OperatingPoint:
    """Run one Fig. 7 operating point and judge it against the limits."""
    system = System(config, governor_freq_ghz=freq)
    verdict = system.pmu.table.verdict(freq, (iclass,) * n_cores)
    sink: List = []
    loop = uniform_loop(iclass, duration_us=300.0, freq_ghz=freq)
    for core in range(n_cores):
        _run_loop_program(system, system.thread_on(core), loop,
                          us_to_ns(5.0), sink)
    system.run_until(us_to_ns(400.0))
    # The steady frequency while the workload runs is the lowest level
    # the limit protection settled at (measured mid-run).
    changes = system.freq_trace.changes_in(us_to_ns(5.0), us_to_ns(300.0))
    realized = min((float(v) for _, v in changes), default=system.pmu.freq_ghz)
    return Fig7OperatingPoint(
        system=config.codename,
        freq_req_ghz=freq,
        workload=label,
        vcc_projected=verdict.vcc_target,
        icc_projected=verdict.icc_projected,
        vcc_max=config.vcc_max,
        icc_max=config.icc_max,
        vcc_violation=verdict.vcc_violation,
        icc_violation=verdict.icc_violation,
        freq_realized_ghz=realized,
    )


def fig7_limit_protection(phase_us: float = 400.0) -> Fig7Result:
    """Limit-protection study: desktop vs mobile, plus a phase timeline."""
    points: List[Fig7OperatingPoint] = []
    desktop = coffee_lake_i7_9700k()
    mobile = cannon_lake_i3_8121u()
    for freq in (4.9, 4.8):
        points.append(_operating_point(desktop, freq, 1, IClass.SCALAR_64, "Non-AVX"))
        points.append(_operating_point(desktop, freq, 1, IClass.HEAVY_256, "AVX2"))
    for freq in (3.1, 2.2):
        points.append(_operating_point(mobile, freq, 2, IClass.SCALAR_64, "Non-AVX"))
        points.append(_operating_point(mobile, freq, 2, IClass.HEAVY_256, "AVX2"))

    # (b): Non-AVX -> AVX2 -> AVX512 phases on both mobile cores at turbo.
    system = System(mobile, governor_freq_ghz=3.1)
    unit = us_to_ns(phase_us)
    sink: List = []
    for core in range(2):
        tid = system.thread_on(core)
        _run_loop_program(
            system, tid,
            uniform_loop(IClass.SCALAR_64, 0.9 * phase_us, 3.1), 0.0, sink,
        )
        _run_loop_program(
            system, tid,
            uniform_loop(IClass.HEAVY_256, 0.9 * phase_us / 4, 3.1),
            1.0 * unit, sink,
        )
        _run_loop_program(
            system, tid,
            uniform_loop(IClass.HEAVY_512, 0.9 * phase_us / 4, 3.1),
            2.0 * unit, sink,
        )
    horizon = 3.2 * unit
    system.run_until(horizon)
    daq = DAQCard()
    vcc = daq.sample(system.vcc_signal(), 0.0, horizon,
                     sample_rate_hz=2e6, name="vcc_phases")
    temps = [(t, float(v)) for t, v in system.temp_trace.breakpoints()]
    temp_max = max(v for _, v in temps) if temps else 0.0
    return Fig7Result(
        points=points,
        timeline_phases=["Non-AVX", "AVX2", "AVX512"],
        timeline_freq=[(t, float(v)) for t, v in system.freq_trace.breakpoints()],
        timeline_vcc=vcc,
        timeline_temp=temps,
        tj_max_c=mobile.thermal.tj_max_c,
        temp_max_c=temp_max,
    )


# ---------------------------------------------------------------------------
# Figure 8 — TP distributions; power-gate wake deltas
# ---------------------------------------------------------------------------


@dataclass
class Fig8Result:
    """TP distributions per part and per-iteration wake-latency deltas."""

    tp_us_by_part: Dict[str, List[float]]
    iteration_deltas_ns: Dict[str, List[float]]


def _tp_sample(config: ProcessorConfig, freq: float, seed: int) -> float:
    """One receiver-style TP estimate for an AVX2 loop at ~``freq``."""
    system = System(config, governor_freq_ghz=freq)
    attach_system_noise(system, [system.thread_on(0)],
                        NoiseConfig(interrupt_rate_per_s=300.0,
                                    ctx_switch_rate_per_s=50.0),
                        horizon_ns=us_to_ns(400.0), seed=seed)
    sink: List = []
    loop = Loop(IClass.HEAVY_256, 60)
    _run_loop_program(system, system.thread_on(0), loop, us_to_ns(20.0), sink)
    system.run_until(us_to_ns(400.0))
    result = sink[0]
    return max(0.0, ns_to_us(result.throttled_ns))


def _iteration_deltas(config: ProcessorConfig, freq: float) -> List[float]:
    """Per-iteration execution-time deltas vs the steady state (Fig 8b/c).

    Runs three consecutive single-iteration AVX2 loops; the third
    iteration's latency is the steady throttled latency, so the deltas
    expose the one-off power-gate wake cost of the first iteration.
    """
    system = System(config, governor_freq_ghz=freq)
    results: List = []

    def program() -> Generator:
        yield system.until(us_to_ns(5.0))
        for _ in range(3):
            result = yield system.execute(system.thread_on(0),
                                          Loop(IClass.HEAVY_256, 1))
            results.append(result)
        return None

    system.spawn(program(), name="pg_iterations")
    system.run_until(us_to_ns(300.0))
    steady = results[-1].elapsed_ns
    return [r.elapsed_ns - steady for r in results]


def _require_positive(name: str, value: int) -> None:
    """Reject a non-positive trial or symbol count at sweep entry."""
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value}")


def _require_finite_nonnegative(name: str, values: Sequence[float]) -> None:
    """Reject a negative, NaN or infinite sweep coordinate at entry."""
    for value in values:
        if not 0 <= value < math.inf:
            raise ConfigError(
                f"{name} must be finite and >= 0, got {value}")


def fig8_throttling(trials: int = 20) -> Fig8Result:
    """TP distributions on the three parts and PG wake deltas."""
    _require_positive("trials", trials)
    rng = np.random.default_rng(8)
    parts = {
        "Haswell": haswell_i7_4770k(),
        "Coffee Lake": coffee_lake_i7_9700k(),
        "Cannon Lake": cannon_lake_i3_8121u(),
    }
    tp: Dict[str, List[float]] = {}
    for name, config in parts.items():
        tp[name] = []
        for trial in range(trials):
            freq = float(rng.uniform(2.9, 3.1))
            freq = min(max(freq, config.min_freq_ghz), config.max_turbo_ghz)
            tp[name].append(_tp_sample(config, freq, seed=trial + 1))
    deltas = {
        "Coffee Lake": _iteration_deltas(coffee_lake_i7_9700k(), 3.0),
        "Haswell": _iteration_deltas(haswell_i7_4770k(), 3.0),
    }
    return Fig8Result(tp_us_by_part=tp, iteration_deltas_ns=deltas)


# ---------------------------------------------------------------------------
# Figure 9 — power gate / Vcc / frequency / throttle timeline
# ---------------------------------------------------------------------------


@dataclass
class Fig9Result:
    """Timelines for the two current-management reactions."""

    didt_vcc: SampleSeries
    didt_throttle: List[Tuple[float, int]]
    didt_wake_ns: float
    didt_tp_us: float
    limit_freq: List[Tuple[float, float]]
    limit_vcc: SampleSeries
    limit_wake_ns: float


def fig9_timeline() -> Fig9Result:
    """AVX2 on Cannon Lake: (a) di/dt ramp at base, (c) P-state at turbo."""
    config = cannon_lake_i3_8121u()
    daq = DAQCard()

    # Case (a): at base frequency the reaction is a guardband ramp.
    system_a = System(config, governor_freq_ghz=2.2)
    sink_a: List = []
    _run_loop_program(system_a, system_a.thread_on(0),
                      Loop(IClass.HEAVY_256, 60), us_to_ns(10.0), sink_a)
    system_a.run_until(us_to_ns(250.0))
    vcc_a = daq.sample(system_a.vcc_signal(), 0.0, us_to_ns(80.0),
                       sample_rate_hz=3.5e6, name="vcc_didt")
    throttle_a = [(t, int(v)) for t, v in system_a.throttle_traces[0].breakpoints()]

    # Case (c): at turbo the limit protection also drops the frequency.
    system_c = System(config, governor_freq_ghz=3.1)
    sink_c: List = []
    for core in range(2):
        _run_loop_program(system_c, system_c.thread_on(core),
                          Loop(IClass.HEAVY_256, 60), us_to_ns(10.0), sink_c)
    system_c.run_until(us_to_ns(300.0))
    vcc_c = daq.sample(system_c.vcc_signal(), 0.0, us_to_ns(120.0),
                       sample_rate_hz=3.5e6, name="vcc_limit")

    return Fig9Result(
        didt_vcc=vcc_a,
        didt_throttle=throttle_a,
        didt_wake_ns=sink_a[0].gate_wake_ns,
        didt_tp_us=ns_to_us(sink_a[0].throttled_ns),
        limit_freq=[(t, float(v)) for t, v in system_c.freq_trace.breakpoints()],
        limit_vcc=vcc_c,
        limit_wake_ns=sink_c[0].gate_wake_ns,
    )


# ---------------------------------------------------------------------------
# Figure 10 — multi-level throttling sweeps
# ---------------------------------------------------------------------------


@dataclass
class Fig10Result:
    """TP sweeps over classes, frequencies and core counts."""

    sweep: Dict[Tuple[str, float, int], float]
    preceded: Dict[str, float]
    levels: Dict[str, str]


def _fig10_cell(config: ProcessorConfig, freq: float, n_cores: int,
                iclass: IClass, iterations: int) -> float:
    """TP of ``n_cores`` cores running an ``iclass`` loop at ``freq``."""
    system = System(config, governor_freq_ghz=freq)
    sink: List = []
    loop = Loop(iclass, iterations)
    for core in range(n_cores):
        _run_loop_program(system, system.thread_on(core), loop,
                          us_to_ns(5.0), sink)
    system.run_until(us_to_ns(500.0))
    return max(ns_to_us(r.throttled_ns) for r in sink)


def _fig10_preceded(config: ProcessorConfig, freq: float, iclass: IClass,
                    iterations: int) -> float:
    """AVX-512 TP when preceded by an ``iclass`` loop on the same thread."""
    system = System(config, governor_freq_ghz=freq)
    sink: List = []

    def program() -> Generator:
        yield system.until(us_to_ns(5.0))
        yield system.execute(system.thread_on(0), Loop(iclass, iterations))
        result = yield system.execute(system.thread_on(0),
                                      Loop(IClass.HEAVY_512, iterations))
        sink.append(result)
        return None

    system.spawn(program(), name=f"preceded_{iclass.label}")
    system.run_until(us_to_ns(800.0))
    return ns_to_us(sink[0].throttled_ns)


def fig10_multilevel(freqs: Sequence[float] = (1.0, 1.2, 1.4),
                     classes: Sequence[IClass] = tuple(IClass),
                     iterations: int = 60) -> Fig10Result:
    """Cannon Lake TP vs instruction class x frequency x active cores."""
    config = cannon_lake_i3_8121u()
    sweep: Dict[Tuple[str, float, int], float] = {
        (iclass.label, freq, n_cores):
            _fig10_cell(config, freq, n_cores, iclass, iterations)
        for freq in freqs for n_cores in (1, 2) for iclass in classes
    }
    preceded: Dict[str, float] = {
        iclass.label: _fig10_preceded(config, freqs[-1], iclass, iterations)
        for iclass in classes
    }

    # Assign L1..L5 by ranking the distinct preceded-TP plateaus.
    ordered = sorted(preceded.items(), key=lambda kv: kv[1])
    levels: Dict[str, str] = {}
    level = 0
    last_tp: Optional[float] = None
    for label, tp in ordered:
        if last_tp is None or tp - last_tp > 0.8:
            level += 1
        levels[label] = f"L{level}"
        last_tp = tp
    return Fig10Result(sweep=sweep, preceded=preceded, levels=levels)


# ---------------------------------------------------------------------------
# Figure 11 — IDQ undelivered-uop signature
# ---------------------------------------------------------------------------


@dataclass
class Fig11Result:
    """Normalised undelivered-slot fractions per iteration."""

    throttled: List[float]
    unthrottled: List[float]


def fig11_idq_signature(iterations: int = 200) -> Fig11Result:
    """Per-iteration IDQ_UOPS_NOT_DELIVERED on the cycle-level model."""
    def run(throttled: bool) -> List[float]:
        pipe = CorePipeline(PipelineConfig())
        pipe.set_thread(0, IClass.HEAVY_256)
        pipe.set_throttle(throttled)
        fractions = []
        cycles_per_iteration = 302  # 300 uops at 4-wide, gated, plus slack
        for _ in range(iterations):
            before = pipe.thread(0).counters.snapshot()
            pipe.run(cycles_per_iteration)
            delta = pipe.thread(0).counters.delta(before)
            fractions.append(normalized_undelivered(delta))
        return fractions

    return Fig11Result(throttled=run(True), unthrottled=run(False))


# ---------------------------------------------------------------------------
# Figure 12 — throughput comparison
# ---------------------------------------------------------------------------


@dataclass
class Fig12Result:
    """Measured throughputs and the paper-style ratios."""

    throughput_bps: Dict[str, float]
    ber: Dict[str, float]

    def ratio(self, ours: str, baseline: str) -> float:
        """Throughput ratio ours/baseline."""
        return self.throughput_bps[ours] / self.throughput_bps[baseline]


def _fig12_baseline_run(name: str, bits: List[int]) -> Tuple[float, float]:
    """(throughput_bps, ber) of one baseline channel on a fresh system."""
    config = cannon_lake_i3_8121u()
    if name == "NetSpectre":
        report = NetSpectreGadget(System(config)).transfer_bits(bits)
    elif name == "TurboCC":
        report = TurboCC(
            System(config, governor_freq_ghz=3.1)).transfer_bits(bits)
    elif name == "DFScovert":
        report = DFSCovert(
            System(config, governor_freq_ghz=3.2)).transfer_bits(bits)
    elif name == "POWERT":
        report = PowerT(
            System(config, governor_freq_ghz=2.2)).transfer_bits(bits)
    else:
        raise ConfigError(f"unknown baseline {name!r}")
    return report.throughput_bps, report.ber


def fig12_throughput(payload: bytes = b"\xa5\x3c\x96\x0f\x5a\xc3",
                     baseline_bits: int = 12) -> Fig12Result:
    """Run every channel and baseline on Cannon Lake systems."""
    results: Dict[str, Tuple[float, float]] = {}
    for kind in CHANNEL_KINDS:
        channel = baseline_channel(kind)
        channel.calibrate()
        report = channel.transfer(payload)
        results[type(channel).__name__] = (report.throughput_bps, report.ber)
    rng = np.random.default_rng(12)
    bits = [int(b) for b in rng.integers(0, 2, baseline_bits)]
    for name in ("NetSpectre", "TurboCC", "DFScovert", "POWERT"):
        results[name] = _fig12_baseline_run(name, bits)
    return Fig12Result(
        throughput_bps={name: bps for name, (bps, _) in results.items()},
        ber={name: ber for name, (_, ber) in results.items()},
    )


# ---------------------------------------------------------------------------
# Figure 13 — receiver TP level distributions in a low-noise system
# ---------------------------------------------------------------------------


@dataclass
class Fig13Result:
    """Per-level receiver measurement clusters and thresholds."""

    samples_by_symbol: Dict[int, List[float]]
    thresholds: List[float]
    separations: List[Tuple[int, int, float]]
    min_gap_cycles: float


def fig13_level_distribution(symbols_per_level: int = 10,
                             seed: int = 13) -> Fig13Result:
    """IccThreadCovert level clusters under low system noise."""
    _require_positive("symbols_per_level", symbols_per_level)
    channel = baseline_channel("thread", noise=NoiseSpec(
        interrupt_rate_per_s=400.0, interrupt_mean_us=2.0,
        ctx_switch_rate_per_s=80.0, ctx_switch_mean_us=15.0,
        horizon_ms=80.0, seed=seed))
    rng = np.random.default_rng(seed)
    symbols = [s for s in range(4) for _ in range(symbols_per_level)]
    rng.shuffle(symbols)
    readings = channel.run_symbols(symbols)
    samples: Dict[int, List[float]] = {0: [], 1: [], 2: [], 3: []}
    for symbol, reading in zip(symbols, readings):
        samples[symbol].append(reading)
    from repro.core.calibration import Calibrator

    calibrator = Calibrator(list(zip(symbols, readings)))
    separations = calibrator.separations()
    min_gap = min(gap for _, _, gap in separations)
    return Fig13Result(
        samples_by_symbol=samples,
        thresholds=calibrator.thresholds,
        separations=separations,
        min_gap_cycles=min_gap,
    )


# ---------------------------------------------------------------------------
# Figure 14 — BER under system noise and concurrent PHIs
# ---------------------------------------------------------------------------


@dataclass
class Fig14Result:
    """BER sweeps for the two noise scenarios plus the 7-zip check."""

    ber_vs_event_rate: Dict[float, float]
    ber_vs_phi_rate: Dict[float, float]
    sevenzip_ber: float


def _fig14_ber(payload: bytes, seed: int, source: str,
               rate_per_s: float = 0.0) -> float:
    """BER of one IccThreadCovert transfer beside one Section-6.3 noise source.

    ``source`` ``"os"`` preempts the channel's thread with interrupts
    and context switches at ``rate_per_s`` events/s (split 80/20);
    ``"phi_schedule"`` (an App injecting ``rate_per_s`` PHIs/s) and
    ``"sevenzip"`` run that workload on core 1.
    """
    duration_ms = 40.0 + 0.9 * len(payload) * 4
    noise = None
    background: Tuple[WorkloadSpec, ...] = ()
    if source == "os":
        noise = NoiseSpec(interrupt_rate_per_s=0.8 * rate_per_s,
                          ctx_switch_rate_per_s=0.2 * rate_per_s,
                          horizon_ms=duration_ms, seed=seed)
    else:
        background = (WorkloadSpec(source, core=1, duration_ms=duration_ms,
                                   seed=seed, rate_per_s=rate_per_s),)
    spec = dataclasses.replace(
        get_spec("baseline_thread"), name="fig14_point",
        description=f"IccThreadCovert beside {source} noise",
        noise=noise, background=background, payload_hex=payload.hex())
    return run_scenario(spec).tenants[0].ber


def fig14_noise_sensitivity(
        payload: bytes = b"\x5a\x0f\xc3\x3c\xa5\x69\x96\x0a",
        event_rates: Sequence[float] = (100.0, 500.0, 1000.0, 2000.0,
                                        5000.0, 10000.0),
        phi_rates: Sequence[float] = (10.0, 100.0, 1000.0, 10000.0),
        trials: int = 3,
        seed: int = 14) -> Fig14Result:
    """BER vs interrupt/context-switch rate and vs App-PHI rate.

    Each point averages ``trials`` independent transfers; single
    transfers are dominated by whether a burst happens to land inside a
    decode window at all.  Every transfer has a seed derived only from
    its (rate, trial) coordinates, so sweep order cannot change the
    result.
    """
    _require_positive("trials", trials)
    _require_finite_nonnegative("event_rates", event_rates)
    _require_finite_nonnegative("phi_rates", phi_rates)
    ber_events = {
        rate: float(np.mean([
            _fig14_ber(payload, seed + int(rate) + 1000 * t, "os", rate)
            for t in range(trials)]))
        for rate in event_rates
    }
    ber_phis = {
        rate: float(np.mean([
            _fig14_ber(payload, seed + int(rate) + 1000 * t,
                       "phi_schedule", rate)
            for t in range(trials)]))
        for rate in phi_rates
    }
    sevenzip = _fig14_ber(payload, seed, "sevenzip")
    return Fig14Result(
        ber_vs_event_rate=ber_events,
        ber_vs_phi_rate=ber_phis,
        sevenzip_ber=sevenzip,
    )


# ---------------------------------------------------------------------------
# Tables 1 and 2
# ---------------------------------------------------------------------------


def table1_mitigations() -> MitigationReport:
    """Mitigation effectiveness matrix on Cannon Lake (Table 1)."""
    return evaluate_all()


@dataclass
class Table2Row:
    """One comparison row of Table 2."""

    proposal: str
    same_core: bool
    cross_smt: bool
    cross_core: bool
    bw_bps: float
    user_level: bool
    mechanism: str
    turbo_independent: bool
    root_cause_identified: bool
    effective_mitigations: bool


#: The three IChannels covert channels, in the paper's column order.
ICC_CHANNELS = ("IccThreadCovert", "IccSMTcovert", "IccCoresCovert")


def table2_comparison(fig12: Fig12Result) -> List[Table2Row]:
    """Comparison matrix with Fig. 12's measured bandwidths (Table 2)."""
    ichannels_bw = max(fig12.throughput_bps[name] for name in ICC_CHANNELS)
    return [
        Table2Row("NetSpectre", True, False, False,
                  fig12.throughput_bps["NetSpectre"], True,
                  "Single-level thread throttling", True, False, False),
        Table2Row("TurboCC", False, False, True,
                  fig12.throughput_bps["TurboCC"], False,
                  "Turbo frequency change", False, False, False),
        Table2Row("IChannels", True, True, True, ichannels_bw, True,
                  "Multi-level thread, SMT and core (VR) throttling",
                  True, True, True),
    ]


# ---------------------------------------------------------------------------
# Section 6.5 — side-channel class inference
# ---------------------------------------------------------------------------


@dataclass
class SideChannelResult:
    """Spy accuracy per location, with full confusion matrices."""

    accuracy: Dict[str, float]
    confusion: Dict[str, Dict[Tuple[str, str], int]]
    key_bits_recovered: Dict[str, int]
    key_bits_total: int


def side_channel_inference(rounds: int = 3, seed: int = 65
                           ) -> SideChannelResult:
    """Measure the §6.5 spy: class inference and key recovery.

    For each location (across SMT, across cores) the spy observes every
    class the part supports ``rounds`` times in a shuffled order, and
    then recovers a random 16-bit key from a victim with key-dependent
    AVX paths.
    """
    from repro.core.levels import ChannelLocation
    from repro.core.side_channel import InstructionClassSpy, KeyDependentVictim

    rng = np.random.default_rng(seed)
    config = cannon_lake_i3_8121u()
    accuracy: Dict[str, float] = {}
    confusion: Dict[str, Dict[Tuple[str, str], int]] = {}
    key_recovered: Dict[str, int] = {}
    key = [int(b) for b in rng.integers(0, 2, 16)]

    for location in (ChannelLocation.ACROSS_SMT, ChannelLocation.ACROSS_CORES):
        system = System(config)
        spy = InstructionClassSpy(system, location)
        classes = [c for c in IClass
                   if c.width_bits <= config.max_vector_bits]
        victim_sequence = [c for _ in range(rounds) for c in classes]
        rng.shuffle(victim_sequence)
        report = spy.spy(victim_sequence)
        accuracy[location.value] = report.accuracy
        matrix: Dict[Tuple[str, str], int] = {}
        for actual, inferred in zip(report.victim_classes,
                                    report.inferred_classes):
            pair = (actual.label, inferred.label)
            matrix[pair] = matrix.get(pair, 0) + 1
        confusion[location.value] = matrix

        system2 = System(config)
        spy2 = InstructionClassSpy(system2, location)
        stolen = spy2.steal_key(KeyDependentVictim(), key)
        key_recovered[location.value] = sum(
            1 for a, b in zip(key, stolen) if a == b)

    return SideChannelResult(
        accuracy=accuracy,
        confusion=confusion,
        key_bits_recovered=key_recovered,
        key_bits_total=len(key),
    )


# ---------------------------------------------------------------------------
# Resilience under fault injection (docs/FAULTS.md)
# ---------------------------------------------------------------------------

#: Mitigation stacks compared by the resilience sweep, weakest first.
RESILIENCE_MITIGATIONS: Tuple[str, ...] = ("none", "arq", "adaptive")


@dataclass
class ResiliencePoint:
    """One (channel, intensity, mitigation) cell of the resilience sweep."""

    channel: str
    intensity: float
    mitigation: str
    residual_ber: float
    raw_ber: float
    goodput_bps: float
    delivered_fraction: float
    attempts: float
    recalibrations: float
    degraded_fraction: float


@dataclass
class ResilienceResult:
    """BER/goodput vs fault intensity, per channel, per mitigation."""

    payload_bytes: int
    trials: int
    intensities: Tuple[float, ...]
    channels: Tuple[str, ...]
    mitigations: Tuple[str, ...]
    points: List[ResiliencePoint]

    def cell(self, channel: str, intensity: float,
             mitigation: str) -> ResiliencePoint:
        """The unique point at the given sweep coordinates."""
        for point in self.points:
            if (point.channel == channel and point.mitigation == mitigation
                    and abs(point.intensity - intensity) < 1e-12):
                return point
        raise ConfigError(
            f"no resilience point at ({channel!r}, {intensity}, "
            f"{mitigation!r})")


def _resilience_trial(channel_name: str, mitigation: str, intensity: float,
                      payload: bytes, seed: int) -> Dict[str, float]:
    """One transfer of ``payload`` under the default fault suite.

    Returns plain floats so the result is picklable and cacheable.  The
    fault suite is rebuilt from its spec string inside the trial — spec
    strings, not injector objects, are the currency shipped to worker
    processes.
    """
    faults = (f"default:intensity={intensity},seed={seed}"
              if intensity > 0.0 else "")
    channel = baseline_channel(channel_name, faults=faults)

    if mitigation == "none":
        # Bare channel: one calibrated transfer, no framing, no FEC.
        try:
            report = channel.transfer(payload)
        except ProtocolError:
            return dict(residual_ber=1.0, raw_ber=1.0, goodput_bps=0.0,
                        delivered=0.0, attempts=1.0, recalibrations=0.0,
                        degraded=0.0)
        delivered = float(report.received == payload)
        return dict(residual_ber=report.ber, raw_ber=report.ber,
                    goodput_bps=report.goodput_bps if delivered else 0.0,
                    delivered=delivered, attempts=1.0, recalibrations=0.0,
                    degraded=0.0)

    adaptive = AdaptiveConfig() if mitigation == "adaptive" else None
    config = SessionConfig(max_retries=8, adaptive=adaptive)
    report = CovertSession(channel, config).send(payload)
    raw_bers = [b for f in report.frames for b in f.raw_ber_per_attempt]
    return dict(
        residual_ber=report.residual_ber,
        raw_ber=float(np.mean(raw_bers)) if raw_bers else 0.0,
        goodput_bps=report.goodput_bps,
        delivered=float(report.ok),
        attempts=float(report.total_attempts),
        recalibrations=float(report.recalibrations),
        degraded=float(report.degraded),
    )


def resilience_sweep(
        payload: bytes = b"\x5a\x0f\xc3\x3c\xa5\x69\x96\x0a",
        intensities: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 2.0),
        channels: Sequence[str] = ("cores",),
        mitigations: Sequence[str] = RESILIENCE_MITIGATIONS,
        trials: int = 2,
        seed: int = 1701,
        runner: Optional[SweepRunner] = None) -> ResilienceResult:
    """Channel resilience vs fault intensity, per mitigation stack.

    Sweeps the default fault suite's intensity across the requested
    channels and compares three stacks: the bare channel (``none``), the
    framed ARQ session (``arq``), and the adaptive session with drift
    re-calibration, backoff, and two-level degradation (``adaptive``).
    Every trial's seed is derived only from its sweep coordinates, so a
    parallel cached run returns exactly what a serial run would.
    """
    for name in channels:
        if name not in CHANNEL_KINDS:
            raise ConfigError(
                f"unknown channel {name!r}; choose from "
                f"{sorted(CHANNEL_KINDS)}")
    for name in mitigations:
        if name not in RESILIENCE_MITIGATIONS:
            raise ConfigError(
                f"unknown mitigation {name!r}; choose from "
                f"{list(RESILIENCE_MITIGATIONS)}")
    _require_positive("trials", trials)
    _require_finite_nonnegative("intensities", intensities)
    runner = runner if runner is not None else SweepRunner()
    coords = [(c, m, x) for c in channels for m in mitigations
              for x in intensities]
    tasks = [
        dict(channel_name=c, mitigation=m, intensity=x, payload=payload,
             seed=seed + 7919 * t + int(round(1000 * x)))
        for (c, m, x) in coords for t in range(trials)
    ]
    rows = runner.map(_resilience_trial, tasks)
    points: List[ResiliencePoint] = []
    for i, (c, m, x) in enumerate(coords):
        cell = rows[i * trials:(i + 1) * trials]
        points.append(ResiliencePoint(
            channel=c, intensity=float(x), mitigation=m,
            residual_ber=float(np.mean([r["residual_ber"] for r in cell])),
            raw_ber=float(np.mean([r["raw_ber"] for r in cell])),
            goodput_bps=float(np.mean([r["goodput_bps"] for r in cell])),
            delivered_fraction=float(np.mean([r["delivered"] for r in cell])),
            attempts=float(np.mean([r["attempts"] for r in cell])),
            recalibrations=float(
                np.mean([r["recalibrations"] for r in cell])),
            degraded_fraction=float(np.mean([r["degraded"] for r in cell])),
        ))
    return ResilienceResult(
        payload_bytes=len(payload),
        trials=trials,
        intensities=tuple(float(x) for x in intensities),
        channels=tuple(channels),
        mitigations=tuple(mitigations),
        points=points,
    )
