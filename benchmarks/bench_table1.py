"""Table 1 — effectiveness and overhead of the three mitigations.

Its claims: the ``table1.*`` rows of :mod:`repro.analysis.claims`.
"""

from conftest import banner

from repro.analysis.experiments import ICC_CHANNELS, table1_mitigations
from repro.analysis.figures import format_table
from repro.mitigations import TABLE1_DEFENDERS
from repro.mitigations.matrix.defenders import get_defender


def test_bench_table1(benchmark):
    report = benchmark.pedantic(table1_mitigations, rounds=1, iterations=1)

    banner("Table 1: mitigation effectiveness (measured on Cannon Lake)")
    rows = [[defender, *(report.verdict(c, defender) for c in ICC_CHANNELS),
             get_defender(defender).overhead_note]
            for defender in TABLE1_DEFENDERS]
    print(format_table(["defender", *ICC_CHANNELS, "overhead"], rows))
    print(f"\nsecure-mode power overhead (measured): "
          f"{report.secure_mode_power_overhead * 100:.1f}% (paper: 4-11%)")

    benchmark.extra_info["secure_mode_power_pct"] = round(
        report.secure_mode_power_overhead * 100, 1)
