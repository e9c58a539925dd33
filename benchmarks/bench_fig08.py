"""Figure 8 — throttling-period distributions and power-gate wake deltas.

Its claims: the ``fig8.*`` rows of :mod:`repro.analysis.claims`.
"""

import numpy as np
from conftest import banner

from repro.analysis.experiments import fig8_throttling
from repro.analysis.figures import histogram_text


def test_bench_fig08(benchmark):
    result = benchmark.pedantic(fig8_throttling, kwargs={"trials": 20},
                                rounds=1, iterations=1)

    banner("Figure 8(a): AVX2 throttling-period distribution per part")
    for part, samples in result.tp_us_by_part.items():
        median = float(np.median(samples))
        print(f"\n{part}: median {median:.1f} us "
              f"(paper: ~9 us Haswell, 12-15 us Coffee/Cannon Lake)")
        print(histogram_text(samples, bins=8, unit="us"))

    banner("Figure 8(b/c): per-iteration execution-time delta vs steady state")
    for part, deltas in result.iteration_deltas_ns.items():
        formatted = ", ".join(f"{d:+.1f} ns" for d in deltas)
        print(f"{part}: iterations 1..3 = [{formatted}]")
    print("(paper: first Coffee Lake iteration +8..15 ns; Haswell flat)")

    cfl_median = float(np.median(result.tp_us_by_part["Coffee Lake"]))
    hsw_median = float(np.median(result.tp_us_by_part["Haswell"]))
    benchmark.extra_info["cfl_tp_us_median"] = round(cfl_median, 2)
    benchmark.extra_info["hsw_tp_us_median"] = round(hsw_median, 2)
    benchmark.extra_info["cfl_first_iter_wake_ns"] = round(
        result.iteration_deltas_ns["Coffee Lake"][0], 1)
