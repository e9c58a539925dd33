"""Figure 7 — Icc_max/Vcc_max limit protection at turbo frequencies.

Its claims: the ``fig7.*`` rows of :mod:`repro.analysis.claims`.
"""

from repro.analysis.experiments import fig7_limit_protection
from repro.analysis.report import render_section


def test_bench_fig07(benchmark):
    result = benchmark.pedantic(fig7_limit_protection, rounds=1, iterations=1)
    print(render_section("fig7", result))

    desktop_49 = [p for p in result.points
                  if p.system == "Coffee Lake" and p.freq_req_ghz == 4.9
                  and p.workload == "AVX2"][0]
    mobile_31 = [p for p in result.points
                 if p.system == "Cannon Lake" and p.freq_req_ghz == 3.1
                 and p.workload == "AVX2"][0]
    benchmark.extra_info["desktop_4.9_avx2_vcc_violation"] = desktop_49.vcc_violation
    benchmark.extra_info["mobile_3.1_avx2_icc_violation"] = mobile_31.icc_violation
