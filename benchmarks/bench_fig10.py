"""Figure 10 — multi-level throttling sweeps on Cannon Lake.

Its claims: the ``fig10.*`` rows of :mod:`repro.analysis.claims`.
"""

from conftest import banner

from repro.analysis.experiments import fig10_multilevel
from repro.analysis.figures import ascii_bars, format_table
from repro.isa import IClass


def test_bench_fig10(benchmark):
    result = benchmark.pedantic(fig10_multilevel, rounds=1, iterations=1)

    banner("Figure 10(a): TP (us) vs class x frequency x active cores")
    rows = []
    for iclass in sorted(IClass):
        row = [iclass.label]
        for freq in (1.0, 1.2, 1.4):
            for cores in (1, 2):
                row.append(f"{result.sweep[(iclass.label, freq, cores)]:.1f}")
        rows.append(row)
    print(format_table(
        ["class", "1.0GHz/1c", "1.0GHz/2c", "1.2GHz/1c", "1.2GHz/2c",
         "1.4GHz/1c", "1.4GHz/2c"], rows))

    banner("Figure 10(b): TP of a 512b_Heavy loop after each class (1.4 GHz)")
    bars = [(f"{result.levels[c.label]} after {c.label}",
             result.preceded[c.label]) for c in sorted(IClass)]
    print(ascii_bars(bars, unit="us"))
    levels = sorted(set(result.levels.values()))
    print(f"distinct levels: {levels} (paper: L1-L5)")

    one = result.sweep[("256b_Heavy", 1.0, 1)]
    two = result.sweep[("256b_Heavy", 1.0, 2)]
    benchmark.extra_info["256b_heavy_1ghz_1core_us"] = round(one, 2)
    benchmark.extra_info["256b_heavy_1ghz_2core_us"] = round(two, 2)
    benchmark.extra_info["levels"] = len(levels)
