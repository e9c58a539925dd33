"""Trace-capture microbenchmark: vectorized vs per-sample rail lookup.

The paper's measurement setup samples the rail at 3.5 MS/s (NI
PCIe-6376); regenerating a figure means evaluating the simulated rail
at tens of thousands of grid points.  This benchmark times the rail's
breakpoint export (``System.vcc_signal().sample``, the path the DAQ
takes) against one ``System.vcc_at`` call per sample over the same
multi-millisecond covert-transfer trace and asserts the contract the
experiment code relies on:

* the vectorized breakpoint path is at least 10x faster than the
  per-sample lookup;
* both agree to within 1e-12 V at every sample.
"""

import time

import numpy as np
from conftest import banner

from repro.core import IccThreadCovert
from repro.measure import sample_grid
from repro.obs import NullTracer, install
from repro.obs.tracer import current as _obs
from repro.soc.config import cannon_lake_i3_8121u
from repro.soc.system import System

#: Acceptance floor for the fast path (ISSUE: >= 10x on multi-ms traces).
MIN_SPEEDUP = 10.0

#: Both sampling paths must agree to this tolerance (volts).
MAX_ABS_DIFF = 1e-12

#: Ceiling on the cost of disabled tracing relative to an untraced
#: transfer (ISSUE: < 5%).
MAX_DISABLED_OVERHEAD = 0.05


def _traced_system() -> System:
    """A system whose rail history holds a full covert transfer."""
    system = System(cannon_lake_i3_8121u())
    channel = IccThreadCovert(system)
    channel.calibrate()
    channel.transfer(b"\xa5\x3c\x96")
    return system


def _best_of(fn, repeats: int = 5) -> float:
    """Minimum wall time of ``fn`` over ``repeats`` runs (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_trace_sampling(benchmark):
    system = _traced_system()
    signal = system.vcc_signal()
    times = sample_grid(0.0, system.now, 3.5e6)

    def scalar():
        return np.array([system.vcc_at(float(t)) for t in times])

    def vectorized():
        return signal.sample(times)

    scalar_values = scalar()
    vectorized_values = vectorized()
    max_diff = float(np.max(np.abs(scalar_values - vectorized_values)))

    t_scalar = _best_of(scalar)
    t_vectorized = _best_of(vectorized)
    speedup = t_scalar / t_vectorized

    benchmark.pedantic(vectorized, rounds=5, iterations=1)

    banner("Trace sampling: vectorized breakpoint path vs per-sample vcc_at")
    print(f"trace span: {system.now / 1e6:.2f} ms, "
          f"{len(times):,} samples at 3.5 MS/s, "
          f"{len(signal.breakpoints()[0]):,} rail breakpoints")
    print(f"scalar:     {t_scalar * 1e3:8.2f} ms")
    print(f"vectorized: {t_vectorized * 1e3:8.2f} ms")
    print(f"speedup:    {speedup:8.1f}x (floor: {MIN_SPEEDUP:.0f}x)")
    print(f"max |diff|: {max_diff:.2e} V (tolerance: {MAX_ABS_DIFF:.0e})")

    benchmark.extra_info["samples"] = len(times)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    benchmark.extra_info["max_abs_diff_v"] = max_diff

    assert len(times) > 10_000
    assert max_diff <= MAX_ABS_DIFF
    assert speedup >= MIN_SPEEDUP


class _CountingTracer(NullTracer):
    """A disabled tracer whose ``enabled`` check counts its callers.

    Instrumentation sites on the disabled path do exactly one thing:
    read the current tracer and test ``enabled``.  Making ``enabled`` a
    counting property gives an *exact* census of those site visits for
    a workload, without altering what the sites execute afterwards.
    """

    def __init__(self):
        super().__init__()
        self.touches = 0

    @property
    def enabled(self):
        self.touches += 1
        return False


def _transfer_workload():
    system = System(cannon_lake_i3_8121u())
    IccThreadCovert(system).transfer(b"\xa5\x3c\x96")


def test_bench_disabled_tracing_overhead(benchmark):
    """Tracing that is off must cost < 5% of a covert transfer.

    The disabled path is ``current()`` plus one attribute check per
    instrumented site; this bounds (exact site visits for a full
    transfer) x (measured per-visit cost) against the transfer's own
    wall time.
    """
    counting = _CountingTracer()
    previous = install(counting)
    try:
        _transfer_workload()
    finally:
        install(previous)
    touches = counting.touches

    # Per-visit cost of the real disabled path, measured tightly.
    probes = 100_000
    start = time.perf_counter()
    for _ in range(probes):
        tracer = _obs()
        if tracer.enabled:  # pragma: no cover - always False here
            raise AssertionError
    per_touch = (time.perf_counter() - start) / probes

    t_workload = _best_of(_transfer_workload, repeats=3)
    overhead = (touches * per_touch) / t_workload

    benchmark.pedantic(_transfer_workload, rounds=3, iterations=1)

    banner("Disabled-tracing overhead: guarded sites vs untraced transfer")
    print(f"site visits:   {touches:,} per 3-byte transfer")
    print(f"per-visit:     {per_touch * 1e9:8.1f} ns")
    print(f"transfer:      {t_workload * 1e3:8.2f} ms")
    print(f"overhead:      {overhead * 100:8.3f}% "
          f"(ceiling: {MAX_DISABLED_OVERHEAD * 100:.0f}%)")

    benchmark.extra_info["site_visits"] = touches
    benchmark.extra_info["overhead_pct"] = round(overhead * 100, 3)

    assert touches > 0
    assert overhead < MAX_DISABLED_OVERHEAD
