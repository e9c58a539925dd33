"""Figure 6 — supply-voltage steps while cores start/stop AVX2.

Its claims: the ``fig6.*`` rows of :mod:`repro.analysis.claims`.
"""

from repro.analysis.experiments import fig6_voltage_steps
from repro.analysis.report import render_section


def test_bench_fig06(benchmark):
    result = benchmark.pedantic(fig6_voltage_steps, rounds=1, iterations=1)
    print(render_section("fig6", result))

    benchmark.extra_info["step_core1_mv"] = round(result.step_core1_mv, 2)
    benchmark.extra_info["step_core0_mv"] = round(result.step_core0_mv, 2)
