"""Figure 7 — Icc_max/Vcc_max limit protection at turbo frequencies.

Its claims: the ``fig7.*`` rows of :mod:`repro.analysis.claims`.
"""

from conftest import banner

from repro.analysis.experiments import fig7_limit_protection
from repro.analysis.figures import format_table


def test_bench_fig07(benchmark):
    result = benchmark.pedantic(fig7_limit_protection, rounds=1, iterations=1)

    banner("Figure 7(a): operating points vs electrical limits")
    rows = []
    for p in result.points:
        rows.append([
            p.system, f"{p.freq_req_ghz:.1f}", p.workload,
            f"{p.vcc_projected:.3f}/{p.vcc_max:.2f}",
            f"{p.icc_projected:.1f}/{p.icc_max:.0f}",
            "VIOLATION" if p.vcc_violation else "ok",
            "VIOLATION" if p.icc_violation else "ok",
            f"{p.freq_realized_ghz:.2f}",
        ])
    print(format_table(
        ["system", "freq", "workload", "Vcc/Vmax", "Icc/Imax",
         "Vcc check", "Icc check", "realized GHz"], rows))

    banner("Figure 7(b): phase timeline (Non-AVX -> AVX2 -> AVX512)")
    print("frequency breakpoints (us, GHz):")
    for t, f in result.timeline_freq[:12]:
        print(f"  t={t / 1000.0:9.1f} us  f={f:.2f} GHz")
    print(f"junction temperature max: {result.temp_max_c:.1f} C "
          f"(Tj_max {result.tj_max_c:.0f} C - not thermal)")

    desktop_49 = [p for p in result.points
                  if p.system == "Coffee Lake" and p.freq_req_ghz == 4.9
                  and p.workload == "AVX2"][0]
    mobile_31 = [p for p in result.points
                 if p.system == "Cannon Lake" and p.freq_req_ghz == 3.1
                 and p.workload == "AVX2"][0]
    benchmark.extra_info["desktop_4.9_avx2_vcc_violation"] = desktop_49.vcc_violation
    benchmark.extra_info["mobile_3.1_avx2_icc_violation"] = mobile_31.icc_violation
