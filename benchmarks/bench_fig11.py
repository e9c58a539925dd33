"""Figure 11 — the IDQ undelivered-uop signature of throttling.

Paper claims regenerated here: during throttled iterations the IDQ
delivers no uops in ~75 % of cycles even though the back-end is not
stalled; in unthrottled iterations the undelivered fraction is ~0.
This is Key Conclusion 5 — the throttle blocks the front-end-to-back-end
interface for 3 of every 4 cycles, for the whole core.
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
    assert abs(throttled_mean - 0.75) < 0.03
    assert unthrottled_mean < 0.05
