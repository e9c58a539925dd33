"""Figure 9 — power gate, Vcc, frequency and throttle timelines.

Its claims: the ``fig9.*`` rows of :mod:`repro.analysis.claims`.
"""

from repro.analysis.experiments import fig9_timeline
from repro.analysis.report import render_section


def test_bench_fig09(benchmark):
    result = benchmark.pedantic(fig9_timeline, rounds=1, iterations=1)
    print(render_section("fig9", result))

    benchmark.extra_info["wake_ns"] = result.didt_wake_ns
    benchmark.extra_info["tp_us"] = round(result.didt_tp_us, 2)
