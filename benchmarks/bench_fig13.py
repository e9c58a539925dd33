"""Figure 13 — receiver TP distributions per level in a low-noise system.

Its claims: the ``fig13.*`` rows of :mod:`repro.analysis.claims`.
"""

from repro.analysis.experiments import fig13_level_distribution
from repro.analysis.report import render_section


def test_bench_fig13(benchmark):
    result = benchmark.pedantic(fig13_level_distribution,
                                rounds=1, iterations=1)
    print(render_section("fig13", result))

    benchmark.extra_info["min_gap_cycles"] = round(result.min_gap_cycles)
