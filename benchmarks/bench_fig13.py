"""Figure 13 — receiver TP distributions per level in a low-noise system.

Its claims: the ``fig13.*`` rows of :mod:`repro.analysis.claims`.
"""

from conftest import banner

from repro.analysis.experiments import fig13_level_distribution
from repro.analysis.figures import histogram_text


def test_bench_fig13(benchmark):
    result = benchmark.pedantic(fig13_level_distribution,
                                kwargs={"symbols_per_level": 10},
                                rounds=1, iterations=1)

    banner("Figure 13: receiver TP measurement clusters (TSC cycles)")
    for symbol in sorted(result.samples_by_symbol):
        samples = result.samples_by_symbol[symbol]
        print(f"\nL{symbol + 1} (bits {symbol >> 1}{symbol & 1}), "
              f"{len(samples)} transactions:")
        print(histogram_text(samples, bins=5))
    print("\ndecision thresholds:",
          [f"{t:.0f}" for t in result.thresholds])
    print("adjacent cluster gaps (cycles):",
          [(f"L{a + 1}", f"L{b + 1}", round(g)) for a, b, g in result.separations])
    print(f"minimum gap: {result.min_gap_cycles:.0f} cycles "
          f"(paper: > 2000 cycles)")

    benchmark.extra_info["min_gap_cycles"] = round(result.min_gap_cycles)
