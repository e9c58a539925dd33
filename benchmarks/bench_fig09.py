"""Figure 9 — power gate, Vcc, frequency and throttle timelines.

Its claims: the ``fig9.*`` rows of :mod:`repro.analysis.claims`.
"""

from conftest import banner

from repro.analysis.experiments import fig9_timeline
from repro.analysis.figures import ascii_series


def test_bench_fig09(benchmark):
    result = benchmark.pedantic(fig9_timeline, rounds=1, iterations=1)

    banner("Figure 9(a): di/dt guardband ramp at base frequency")
    print(f"AVX power-gate wake : {result.didt_wake_ns:.1f} ns (paper: 8-15 ns)")
    print(f"throttling period   : {result.didt_tp_us:.1f} us (paper: ~10 us)")
    share = result.didt_wake_ns / (result.didt_tp_us * 1000.0)
    print(f"wake / TP share     : {share * 100:.2f}% (paper: ~0.1%)")
    print("throttle breakpoints (t_ns, state):", result.didt_throttle[:6])
    print(ascii_series(result.didt_vcc.times_ns, result.didt_vcc.values * 1000,
                       label="Vcc (mV) during ramp"))

    banner("Figure 9(c): Icc_max protection at turbo (P-state transition)")
    for t, f in result.limit_freq[:8]:
        print(f"  t={t / 1000.0:8.1f} us  f={f:.2f} GHz")

    benchmark.extra_info["wake_ns"] = result.didt_wake_ns
    benchmark.extra_info["tp_us"] = round(result.didt_tp_us, 2)
