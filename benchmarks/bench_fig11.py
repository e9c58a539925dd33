"""Figure 11 — the IDQ undelivered-uop signature of throttling.

Its claims: the ``fig11.*`` rows of :mod:`repro.analysis.claims`.  This
bench is also a performance guard: it times 300 iterations, the size its
``BENCH_baseline.json`` median was recorded at, not the default 200.
"""

import numpy as np

from repro.analysis.experiments import fig11_idq_signature
from repro.analysis.report import render_section


def test_bench_fig11(benchmark):
    result = benchmark.pedantic(fig11_idq_signature,
                                kwargs={"iterations": 300},
                                rounds=20, iterations=1, warmup_rounds=1)
    print(render_section("fig11", result))

    benchmark.extra_info["throttled_mean"] = round(
        float(np.mean(result.throttled)), 4)
    benchmark.extra_info["unthrottled_mean"] = round(
        float(np.mean(result.unthrottled)), 4)
