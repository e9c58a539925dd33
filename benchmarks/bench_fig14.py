"""Figure 14 — bit error rate under system noise and concurrent PHIs.

Paper claims regenerated here:
* (a) BER stays low even at thousands of interrupts/context switches per
  second — the decode window is only microseconds long, so collisions
  are rare;
* (c) BER rises with the rate of a concurrent application injecting
  random-level PHIs, because higher-level App PHIs outrank the channel's
  own symbols on the shared rail;
* running a 7-zip-like neighbour (AVX2 bursts, no AVX-512) keeps BER
  below the paper's 0.07 bound.
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
    assert max(result.ber_vs_event_rate.values()) < 0.15
    assert (result.ber_vs_phi_rate[10000.0]
            >= result.ber_vs_phi_rate[10.0])
    assert result.sevenzip_ber < 0.07
