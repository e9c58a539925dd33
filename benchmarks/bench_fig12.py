"""Figure 12 — throughput of IChannels vs the four baselines.

Its claims: the ``fig12.*`` rows of :mod:`repro.analysis.claims`.
"""

from repro.analysis.experiments import fig12_throughput
from repro.analysis.report import render_section


def test_bench_fig12(benchmark):
    result = benchmark.pedantic(fig12_throughput, rounds=1, iterations=1)
    print(render_section("fig12", result))

    for name, bps in result.throughput_bps.items():
        benchmark.extra_info[name] = round(bps, 1)
