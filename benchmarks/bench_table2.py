"""Table 2 — comparison against state-of-the-art throttling channels.

Its claims: the ``table2.*`` rows of :mod:`repro.analysis.claims`.
"""

from repro.analysis.experiments import fig12_throughput, table2_comparison
from repro.analysis.report import render_section


def test_bench_table2(benchmark):
    rows = benchmark.pedantic(lambda: table2_comparison(fig12_throughput()),
                              rounds=1, iterations=1)
    print(render_section("table2", rows))

    by_name = {r.proposal: r for r in rows}
    benchmark.extra_info["ichannels_bw"] = round(by_name["IChannels"].bw_bps)
    benchmark.extra_info["netspectre_bw"] = round(by_name["NetSpectre"].bw_bps)
    benchmark.extra_info["turbocc_bw"] = round(by_name["TurboCC"].bw_bps)
