"""Figure 8 — throttling-period distributions and power-gate wake deltas.

Its claims: the ``fig8.*`` rows of :mod:`repro.analysis.claims`.
"""

import numpy as np

from repro.analysis.experiments import fig8_throttling
from repro.analysis.report import render_section


def test_bench_fig08(benchmark):
    result = benchmark.pedantic(fig8_throttling, rounds=1, iterations=1)
    print(render_section("fig8", result))

    cfl_median = float(np.median(result.tp_us_by_part["Coffee Lake"]))
    hsw_median = float(np.median(result.tp_us_by_part["Haswell"]))
    benchmark.extra_info["cfl_tp_us_median"] = round(cfl_median, 2)
    benchmark.extra_info["hsw_tp_us_median"] = round(hsw_median, 2)
    benchmark.extra_info["cfl_first_iter_wake_ns"] = round(
        result.iteration_deltas_ns["Coffee Lake"][0], 1)
