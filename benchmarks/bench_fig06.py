"""Figure 6 — supply-voltage steps while cores start/stop AVX2.

Its claims: the ``fig6.*`` rows of :mod:`repro.analysis.claims`.
"""

from conftest import banner

from repro.analysis.experiments import fig6_voltage_steps
from repro.analysis.figures import ascii_series


def test_bench_fig06(benchmark):
    result = benchmark.pedantic(fig6_voltage_steps, rounds=1, iterations=1)

    banner("Figure 6(a): Vcc steps as two Coffee Lake cores run AVX2 @ 2 GHz")
    print(f"baseline Vcc        : {result.vcc_start_mv:8.1f} mV  (paper: 788 mV)")
    print(f"core 1 joins AVX2   : +{result.step_core1_mv:7.1f} mV  (paper: ~8 mV)")
    print(f"core 0 joins AVX2   : +{result.step_core0_mv:7.1f} mV  (paper: ~9 mV)")
    print(f"after both stop     : {result.return_mv:+8.1f} mV  (paper: back to start)")
    print(f"frequency           : {result.freq_ghz_start:.1f} -> "
          f"{result.freq_ghz_end:.1f} GHz (paper: flat at 2 GHz)")
    delta = result.vcc_samples.delta_from_start()
    print(ascii_series(delta.times_ns, delta.values * 1000.0,
                       label="Vcc delta (mV) vs time"))

    banner("Figure 6(b): Vcc tracking calculix-like AVX2 phases")
    calc = result.calculix_vcc.delta_from_start()
    print(ascii_series(calc.times_ns, calc.values * 1000.0,
                       label=f"Vcc delta (mV), {result.calculix_phases} phases"))

    benchmark.extra_info["step_core1_mv"] = round(result.step_core1_mv, 2)
    benchmark.extra_info["step_core0_mv"] = round(result.step_core0_mv, 2)
