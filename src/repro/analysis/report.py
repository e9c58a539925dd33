"""Full reproduction report generator.

Runs every experiment (Figures 6-14, Tables 1-2) and renders a single
markdown report with the measured values next to the paper's.  Usable as
a library (:func:`generate_report`) or from the command line::

    python -m repro.analysis.report [-o REPORT.md] [--quick]

``--quick`` trims trial counts for a faster smoke run.
"""

from __future__ import annotations

import argparse
import io
from typing import Optional

import numpy as np

from repro.analysis import experiments as ex
from repro.analysis.figures import format_table
from repro.isa import IClass


def _fig6(out: io.StringIO) -> None:
    result = ex.fig6_voltage_steps()
    out.write("## Figure 6 — di/dt guardband steps\n\n")
    out.write(format_table(
        ["observation", "paper", "measured"],
        [
            ["baseline Vcc @ 2 GHz", "788 mV", f"{result.vcc_start_mv:.0f} mV"],
            ["core 1 starts AVX2", "+8 mV", f"+{result.step_core1_mv:.1f} mV"],
            ["core 0 joins", "+9 mV", f"+{result.step_core0_mv:.1f} mV"],
            ["after both stop", "back to start", f"{result.return_mv:+.1f} mV"],
            ["frequency", "flat at 2 GHz",
             f"{result.freq_ghz_start:.1f} -> {result.freq_ghz_end:.1f} GHz"],
        ]))
    out.write("\n\n")


def _fig7(out: io.StringIO) -> None:
    result = ex.fig7_limit_protection()
    out.write("## Figure 7 — Icc/Vcc limit protection\n\n")
    rows = []
    for p in result.points:
        verdicts = []
        if p.vcc_violation:
            verdicts.append("Vcc_max exceeded")
        if p.icc_violation:
            verdicts.append("Icc_max exceeded")
        rows.append([
            p.system, f"{p.freq_req_ghz:.1f} GHz", p.workload,
            f"{p.vcc_projected:.3f} V / {p.icc_projected:.1f} A",
            ", ".join(verdicts) or "within limits",
            f"{p.freq_realized_ghz:.2f} GHz",
        ])
    out.write(format_table(
        ["system", "requested", "workload", "projected V/I", "verdict",
         "realized"], rows))
    out.write(f"\n\nJunction temperature peaked at {result.temp_max_c:.0f} C "
              f"(Tj_max {result.tj_max_c:.0f} C) — not thermal.\n\n")


def _fig8(out: io.StringIO, trials: int) -> None:
    result = ex.fig8_throttling(trials=trials)
    out.write("## Figure 8 — throttling periods and power-gate wake\n\n")
    rows = []
    expectations = {"Haswell": "~9 us", "Coffee Lake": "12-15 us",
                    "Cannon Lake": "12-15 us"}
    for part, samples in result.tp_us_by_part.items():
        rows.append([part, expectations[part],
                     f"{float(np.median(samples)):.1f} us "
                     f"[{min(samples):.1f}, {max(samples):.1f}]"])
    out.write(format_table(["part", "paper TP", "measured TP (median [range])"],
                           rows))
    out.write("\n\nPer-iteration deltas vs steady state (paper: first CFL "
              "iteration +8-15 ns, Haswell flat):\n\n")
    for part, deltas in result.iteration_deltas_ns.items():
        formatted = ", ".join(f"{d:+.1f}" for d in deltas)
        out.write(f"* {part}: [{formatted}] ns\n")
    out.write("\n")


def _fig9(out: io.StringIO) -> None:
    result = ex.fig9_timeline()
    share = result.didt_wake_ns / (result.didt_tp_us * 1000.0)
    out.write("## Figure 9 — wake latency vs throttling period\n\n")
    out.write(f"* power-gate wake: {result.didt_wake_ns:.0f} ns "
              f"(paper: 8-15 ns)\n")
    out.write(f"* throttling period: {result.didt_tp_us:.1f} us\n")
    out.write(f"* wake share of TP: {share * 100:.2f}% (paper: ~0.1%)\n")
    out.write(f"* limit case frequency floor: "
              f"{min(f for _, f in result.limit_freq):.2f} GHz "
              f"(from 3.1 GHz)\n\n")


def _fig10(out: io.StringIO) -> None:
    result = ex.fig10_multilevel()
    out.write("## Figure 10 — multi-level throttling (Cannon Lake)\n\n")
    rows = []
    for iclass in sorted(IClass):
        rows.append([
            iclass.label,
            f"{result.sweep[(iclass.label, 1.0, 1)]:.1f}",
            f"{result.sweep[(iclass.label, 1.0, 2)]:.1f}",
            f"{result.sweep[(iclass.label, 1.4, 1)]:.1f}",
            f"{result.preceded[iclass.label]:.1f}",
            result.levels[iclass.label],
        ])
    out.write(format_table(
        ["class", "TP 1GHz/1c (us)", "TP 1GHz/2c", "TP 1.4GHz/1c",
         "512H-after (us)", "level"], rows))
    out.write("\n\nPaper anchors: 256b_Heavy ~5 us (1 core) / ~9 us "
              "(2 cores) at 1 GHz; at least five levels L1-L5.\n\n")


def _fig11(out: io.StringIO) -> None:
    result = ex.fig11_idq_signature()
    out.write("## Figure 11 — IDQ undelivered-uop signature\n\n")
    out.write(f"* throttled iterations: {np.mean(result.throttled):.3f} "
              f"(paper ~0.75)\n")
    out.write(f"* unthrottled iterations: {np.mean(result.unthrottled):.3f} "
              f"(paper ~0)\n\n")


def _fig12(out: io.StringIO) -> "ex.Fig12Result":
    result = ex.fig12_throughput()
    out.write("## Figure 12 — throughput comparison\n\n")
    paper = {
        "IccThreadCovert": 2899, "IccSMTcovert": 2899, "IccCoresCovert": 2899,
        "NetSpectre": 1500, "TurboCC": 61, "DFScovert": 20, "POWERT": 122,
    }
    rows = [
        [name, f"{paper[name]} b/s", f"{bps:.0f} b/s",
         f"{result.ber[name]:.2f}"]
        for name, bps in sorted(result.throughput_bps.items(),
                                key=lambda kv: -kv[1])
    ]
    out.write(format_table(["channel", "paper", "measured", "BER"], rows))
    out.write("\n\nRatios: "
              f"IccThread/NetSpectre = "
              f"{result.ratio('IccThreadCovert', 'NetSpectre'):.1f}x "
              f"(paper 2x); vs TurboCC "
              f"{result.ratio('IccSMTcovert', 'TurboCC'):.0f}x (47x); "
              f"vs DFScovert "
              f"{result.ratio('IccSMTcovert', 'DFScovert'):.0f}x (145x); "
              f"vs POWERT "
              f"{result.ratio('IccSMTcovert', 'POWERT'):.0f}x (24x).\n\n")
    return result


def _fig13(out: io.StringIO) -> None:
    result = ex.fig13_level_distribution()
    out.write("## Figure 13 — level clusters under low noise\n\n")
    rows = []
    for symbol in sorted(result.samples_by_symbol):
        samples = result.samples_by_symbol[symbol]
        rows.append([
            f"L{symbol + 1}", len(samples),
            f"{float(np.median(samples)):.0f}",
            f"[{min(samples):.0f}, {max(samples):.0f}]",
        ])
    out.write(format_table(
        ["level", "transactions", "median (cycles)", "range"], rows))
    out.write(f"\n\nMinimum adjacent-cluster gap: "
              f"{result.min_gap_cycles:.0f} cycles (paper: > 2000).\n\n")


def _fig14(out: io.StringIO, trials: int) -> None:
    result = ex.fig14_noise_sensitivity(trials=trials)
    out.write("## Figure 14 — noise sensitivity\n\n")
    rows = [[f"{int(rate)} events/s", f"{ber:.3f}"]
            for rate, ber in sorted(result.ber_vs_event_rate.items())]
    out.write("BER vs interrupt/context-switch rate (paper: low even when "
              "highly noisy):\n\n")
    out.write(format_table(["system event rate", "BER"], rows))
    rows = [[f"{int(rate)} PHIs/s", f"{ber:.3f}"]
            for rate, ber in sorted(result.ber_vs_phi_rate.items())]
    out.write("\n\nBER vs concurrent App-PHI rate (paper: grows with "
              "rate):\n\n")
    out.write(format_table(["App-PHI rate", "BER"], rows))
    out.write(f"\n\n7-zip neighbour BER: {result.sevenzip_ber:.3f} "
              f"(paper: < 0.07).\n\n")


def _table1(out: io.StringIO) -> None:
    report = ex.table1_mitigations()
    out.write("## Table 1 — mitigations\n\n")
    channels = ["IccThreadCovert", "IccSMTcovert", "IccCoresCovert"]
    # The paper's row label and overhead column for each defender.
    paper = (("per_core_ldo", "per-core-vr", "11%-13% more core area"),
             ("improved_throttling", "improved-throttling",
              "some design effort"),
             ("secure_mode", "secure-mode", "4%-11% additional power"))
    rows = [[label] + [report.verdict(c, defender) for c in channels]
            + [overhead] for defender, label, overhead in paper]
    out.write(format_table(["mitigation"] + channels + ["overhead"], rows))
    out.write(f"\n\nSecure-mode power overhead (measured): "
              f"{report.secure_mode_power_overhead * 100:.1f}% "
              f"(paper: 4-11%).\n\n")


def _table2(out: io.StringIO, fig12: "ex.Fig12Result") -> None:
    rows = ex.table2_comparison(fig12)
    out.write("## Table 2 — comparison matrix\n\n")
    def mark(flag: bool) -> str:
        return "yes" if flag else "-"

    table = [
        [r.proposal, mark(r.same_core), mark(r.cross_smt), mark(r.cross_core),
         f"{r.bw_bps:.0f} b/s", "U" if r.user_level else "K",
         mark(r.turbo_independent), mark(r.root_cause_identified),
         mark(r.effective_mitigations)]
        for r in rows
    ]
    out.write(format_table(
        ["proposal", "same core", "cross-SMT", "cross-core", "BW", "U/K",
         "turbo-indep", "root cause", "mitigations"], table))
    out.write("\n")


def generate_report(quick: bool = False) -> str:
    """Run every experiment and return the markdown report."""
    trials = 8 if quick else 20
    noise_trials = 2 if quick else 3
    out = io.StringIO()
    out.write("# IChannels reproduction report\n\n")
    out.write("Generated by `python -m repro.analysis.report`; every value "
              "below is measured from the simulator described in "
              "DESIGN.md.\n\n")
    _fig6(out)
    _fig7(out)
    _fig8(out, trials)
    _fig9(out)
    _fig10(out)
    _fig11(out)
    fig12 = _fig12(out)
    _fig13(out)
    _fig14(out, noise_trials)
    _table1(out)
    _table2(out, fig12)
    return out.getvalue()


def main(argv: Optional[list] = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        description="Regenerate every IChannels table/figure into one "
                    "markdown report.")
    parser.add_argument("-o", "--output", default=None,
                        help="write the report to this file (default: stdout)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced trial counts for a fast smoke run")
    args = parser.parse_args(argv)
    report = generate_report(quick=args.quick)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {args.output} ({len(report.splitlines())} lines)")
    else:
        print(report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
