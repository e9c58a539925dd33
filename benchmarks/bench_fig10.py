"""Figure 10 — multi-level throttling sweeps on Cannon Lake.

Its claims: the ``fig10.*`` rows of :mod:`repro.analysis.claims`.
"""

from repro.analysis.experiments import fig10_multilevel
from repro.analysis.report import render_section


def test_bench_fig10(benchmark):
    result = benchmark.pedantic(fig10_multilevel, rounds=1, iterations=1)
    print(render_section("fig10", result))

    one = result.sweep[("256b_Heavy", 1.0, 1)]
    two = result.sweep[("256b_Heavy", 1.0, 2)]
    benchmark.extra_info["256b_heavy_1ghz_1core_us"] = round(one, 2)
    benchmark.extra_info["256b_heavy_1ghz_2core_us"] = round(two, 2)
    benchmark.extra_info["levels"] = len(set(result.levels.values()))
