"""Figure 14 — bit error rate under system noise and concurrent PHIs.

Its claims: the ``fig14.*`` rows of :mod:`repro.analysis.claims`.
"""

from conftest import banner

from repro.analysis.experiments import fig14_noise_sensitivity
from repro.analysis.figures import ascii_bars


def test_bench_fig14(benchmark):
    result = benchmark.pedantic(fig14_noise_sensitivity,
                                rounds=1, iterations=1)

    banner("Figure 14(a): BER vs interrupt/context-switch rate")
    rows = [(f"{int(rate):>6d} events/s", ber)
            for rate, ber in sorted(result.ber_vs_event_rate.items())]
    print(ascii_bars(rows))
    print("(paper: low BER even in a highly noisy system)")

    banner("Figure 14(c): BER vs concurrent App-PHI rate")
    rows = [(f"{int(rate):>6d} PHIs/s", ber)
            for rate, ber in sorted(result.ber_vs_phi_rate.items())]
    print(ascii_bars(rows))
    print("(paper: BER grows significantly with the App-PHI rate)")

    banner("7-zip neighbour")
    print(f"BER with 7-zip-like workload: {result.sevenzip_ber:.3f} "
          f"(paper: < 0.07)")

    benchmark.extra_info["max_event_ber"] = round(
        max(result.ber_vs_event_rate.values()), 4)
    benchmark.extra_info["phi_10k_ber"] = round(
        result.ber_vs_phi_rate[10000.0], 4)
    benchmark.extra_info["sevenzip_ber"] = round(result.sevenzip_ber, 4)
