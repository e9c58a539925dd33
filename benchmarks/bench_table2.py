"""Table 2 — comparison against state-of-the-art throttling channels.

Its claims: the ``table2.*`` rows of :mod:`repro.analysis.claims`.
"""

from conftest import banner

from repro.analysis.experiments import fig12_throughput, table2_comparison
from repro.analysis.figures import format_table


def test_bench_table2(benchmark):
    rows = benchmark.pedantic(lambda: table2_comparison(fig12_throughput()),
                              rounds=1, iterations=1)

    banner("Table 2: comparison to state-of-the-art covert channels")
    def mark(flag):
        return "yes" if flag else "-"

    table = []
    for row in rows:
        table.append([
            row.proposal, mark(row.same_core), mark(row.cross_smt),
            mark(row.cross_core), f"{row.bw_bps:.0f} b/s",
            "U" if row.user_level else "K", row.mechanism,
            mark(row.turbo_independent), mark(row.root_cause_identified),
            mark(row.effective_mitigations),
        ])
    print(format_table(
        ["proposal", "same core", "cross-SMT", "cross-core", "BW",
         "U/K", "mechanism", "turbo-indep", "root cause", "mitigations"],
        table))

    by_name = {r.proposal: r for r in rows}
    benchmark.extra_info["ichannels_bw"] = round(by_name["IChannels"].bw_bps)
    benchmark.extra_info["netspectre_bw"] = round(by_name["NetSpectre"].bw_bps)
    benchmark.extra_info["turbocc_bw"] = round(by_name["TurboCC"].bw_bps)
