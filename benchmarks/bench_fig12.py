"""Figure 12 — throughput of IChannels vs the four baselines.

Its claims: the ``fig12.*`` rows of :mod:`repro.analysis.claims`.
"""

from conftest import banner

from repro.analysis.claims import CLAIMS
from repro.analysis.experiments import fig12_throughput
from repro.analysis.figures import ascii_bars


def test_bench_fig12(benchmark):
    result = benchmark.pedantic(fig12_throughput, rounds=1, iterations=1)

    banner("Figure 12: measured channel throughputs (bit/s)")
    bars = sorted(result.throughput_bps.items(), key=lambda kv: -kv[1])
    print(ascii_bars(bars, unit=" bps"))

    print("\nRatios (ours / baseline):")
    for claim in CLAIMS:
        if claim.key.startswith("fig12.ratio."):
            print(f"  {claim.key:24s} measured {claim.measure(result):6.1f}x"
                  f"   paper {claim.paper}")

    for name, bps in result.throughput_bps.items():
        benchmark.extra_info[name] = round(bps, 1)
