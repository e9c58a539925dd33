"""Table 1 — effectiveness and overhead of the three mitigations.

Its claims: the ``table1.*`` rows of :mod:`repro.analysis.claims`.
"""

from repro.analysis.experiments import table1_mitigations
from repro.analysis.report import render_section


def test_bench_table1(benchmark):
    report = benchmark.pedantic(table1_mitigations, rounds=1, iterations=1)
    print(render_section("table1", report))

    benchmark.extra_info["secure_mode_power_pct"] = round(
        report.secure_mode_power_overhead * 100, 1)
