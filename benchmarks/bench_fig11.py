"""Figure 11 — the IDQ undelivered-uop signature of throttling.

Its claims: the ``fig11.*`` rows of :mod:`repro.analysis.claims`.
"""

import numpy as np
from conftest import banner

from repro.analysis.experiments import fig11_idq_signature
from repro.analysis.figures import histogram_text


def test_bench_fig11(benchmark):
    result = benchmark.pedantic(fig11_idq_signature,
                                kwargs={"iterations": 300},
                                rounds=20, iterations=1, warmup_rounds=1)

    banner("Figure 11(a): normalized IDQ_UOPS_NOT_DELIVERED per iteration")
    throttled_mean = float(np.mean(result.throttled))
    unthrottled_mean = float(np.mean(result.unthrottled))
    print(f"\nThrottled iterations (mean {throttled_mean:.3f}, paper ~0.75):")
    print(histogram_text(result.throttled, bins=6))
    print(f"\nUnthrottled iterations (mean {unthrottled_mean:.3f}, paper ~0):")
    print(histogram_text(result.unthrottled, bins=6))

    benchmark.extra_info["throttled_mean"] = round(throttled_mean, 4)
    benchmark.extra_info["unthrottled_mean"] = round(unthrottled_mean, 4)
