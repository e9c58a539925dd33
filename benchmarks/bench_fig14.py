"""Figure 14 — bit error rate under system noise and concurrent PHIs.

Its claims: the ``fig14.*`` rows of :mod:`repro.analysis.claims`.
"""

from repro.analysis.experiments import fig14_noise_sensitivity
from repro.analysis.report import render_section


def test_bench_fig14(benchmark):
    result = benchmark.pedantic(fig14_noise_sensitivity,
                                rounds=1, iterations=1)
    print(render_section("fig14", result))

    benchmark.extra_info["max_event_ber"] = round(
        max(result.ber_vs_event_rate.values()), 4)
    benchmark.extra_info["phi_10k_ber"] = round(
        result.ber_vs_phi_rate[10000.0], 4)
    benchmark.extra_info["sevenzip_ber"] = round(result.sevenzip_ber, 4)
