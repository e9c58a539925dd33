"""Full reproduction report generator.

:func:`run_experiments` runs every experiment (Figures 6-14, Tables 1-2)
at its defaults, which are the paper run; :func:`render_section` renders
one REPORT.md section, the measured values next to the paper's read from
:data:`repro.analysis.claims.CLAIMS`, and :func:`render_report` renders
them all in order.  Usable as a library (:func:`generate_report`) or
from the command line::

    python -m repro.analysis.report [-o REPORT.md]
"""

from __future__ import annotations

import argparse
import io
from functools import cached_property
from types import SimpleNamespace
from typing import Any, List, Optional

import numpy as np

from repro.analysis import experiments as ex
from repro.analysis.figures import format_table
from repro.isa import IClass
from repro.mitigations import MitigationReport


class PaperResults(SimpleNamespace):
    """Every experiment's result, one attribute each (``fig6`` ...).

    :func:`run_experiments` fills in what REPORT.md renders.  §6.5's side
    channel, the resilience seed spread and the resilience sweep have no
    REPORT.md section, so they run on first access; only their claims
    and the CSV export read them.
    """

    @property
    def table2(self) -> List[ex.Table2Row]:
        """Table 2's rows, with Fig. 12's measured bandwidths."""
        return ex.table2_comparison(self.fig12)

    @cached_property
    def side_channel(self) -> ex.SideChannelResult:
        """§6.5's class inference and key recovery."""
        return ex.side_channel_inference()

    @cached_property
    def resilience(self) -> List[ex.ResilienceResult]:
        """ARQ and adaptive sessions at nominal fault intensity, seeds 1-10."""
        return [ex.resilience_sweep(intensities=(1.0,), seed=seed,
                                    mitigations=("arq", "adaptive"))
                for seed in range(1, 11)]

    @cached_property
    def resilience_sweep(self) -> ex.ResilienceResult:
        """The fault-resilience sweep at its defaults."""
        return ex.resilience_sweep()


def run_experiments() -> PaperResults:
    """Run every experiment REPORT.md renders, each at its defaults."""
    return PaperResults(
        fig6=ex.fig6_voltage_steps(),
        fig7=ex.fig7_limit_protection(),
        fig8=ex.fig8_throttling(),
        fig9=ex.fig9_timeline(),
        fig10=ex.fig10_multilevel(),
        fig11=ex.fig11_idq_signature(),
        fig12=ex.fig12_throughput(),
        fig13=ex.fig13_level_distribution(),
        fig14=ex.fig14_noise_sensitivity(),
        table1=ex.table1_mitigations(),
    )


def _fig6(out: io.StringIO, result: ex.Fig6Result, paper: dict) -> None:
    """Render Figure 6: the guardband steps."""
    out.write("## Figure 6 — di/dt guardband steps\n\n")
    out.write(format_table(
        ["observation", "paper", "measured"],
        [
            ["baseline Vcc @ 2 GHz", paper["fig6.baseline_mv"],
             f"{result.vcc_start_mv:.0f} mV"],
            ["core 1 starts AVX2", paper["fig6.step_core1_mv"],
             f"+{result.step_core1_mv:.1f} mV"],
            ["core 0 joins", paper["fig6.step_core0_mv"],
             f"+{result.step_core0_mv:.1f} mV"],
            ["after both stop", paper["fig6.return_mv"],
             f"{result.return_mv:+.1f} mV"],
            ["frequency", paper["fig6.freq_ghz"],
             f"{result.freq_ghz_start:.1f} -> {result.freq_ghz_end:.1f} GHz"],
        ]))
    out.write("\n\n")


def _fig7(out: io.StringIO, result: ex.Fig7Result, paper: dict) -> None:
    """Render Figure 7: each operating point against the limits."""
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
              f"(Tj_max {result.tj_max_c:.0f} C) — "
              f"{paper['fig7.not_thermal']}.\n\n")


def _fig8(out: io.StringIO, result: ex.Fig8Result, paper: dict) -> None:
    """Render Figure 8: TP per part and the per-iteration wake deltas."""
    out.write("## Figure 8 — throttling periods and power-gate wake\n\n")
    rows = []
    for part, samples in result.tp_us_by_part.items():
        key = "fig8.tp_" + part.lower().replace(" ", "_") + "_us"
        rows.append([part, paper[key],
                     f"{float(np.median(samples)):.1f} us "
                     f"[{min(samples):.1f}, {max(samples):.1f}]"])
    out.write(format_table(["part", "paper TP", "measured TP (median [range])"],
                           rows))
    out.write(f"\n\nPer-iteration deltas vs steady state (paper: "
              f"{paper['fig8.cfl_first_iteration_ns']}, "
              f"{paper['fig8.haswell_flat_ns']}):\n\n")
    for part, deltas in result.iteration_deltas_ns.items():
        formatted = ", ".join(f"{d:+.1f}" for d in deltas)
        out.write(f"* {part}: [{formatted}] ns\n")
    out.write("\n")


def _fig9(out: io.StringIO, result: ex.Fig9Result, paper: dict) -> None:
    """Render Figure 9: wake latency against the throttling period."""
    share = result.didt_wake_ns / (result.didt_tp_us * 1000.0)
    out.write("## Figure 9 — wake latency vs throttling period\n\n")
    out.write(f"* power-gate wake: {result.didt_wake_ns:.0f} ns "
              f"(paper: {paper['fig9.wake_ns']})\n")
    out.write(f"* throttling period: {result.didt_tp_us:.1f} us\n")
    out.write(f"* wake share of TP: {share * 100:.2f}% "
              f"(paper: {paper['fig9.wake_share']})\n")
    out.write(f"* limit case frequency floor: "
              f"{min(f for _, f in result.limit_freq):.2f} GHz "
              f"({paper['fig9.limit_floor_ghz']})\n\n")


def _fig10(out: io.StringIO, result: ex.Fig10Result, paper: dict) -> None:
    """Render Figure 10: the TP sweep and the levels."""
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
    out.write(f"\n\nPaper anchors: {paper['fig10.heavy256_one_core_us']} / "
              f"{paper['fig10.heavy256_two_cores_us']}; "
              f"{paper['fig10.levels']}.\n\n")


def _fig11(out: io.StringIO, result: ex.Fig11Result, paper: dict) -> None:
    """Render Figure 11: the mean undelivered-uop fractions."""
    out.write("## Figure 11 — IDQ undelivered-uop signature\n\n")
    out.write(f"* throttled iterations: {np.mean(result.throttled):.3f} "
              f"(paper {paper['fig11.throttled']})\n")
    out.write(f"* unthrottled iterations: {np.mean(result.unthrottled):.3f} "
              f"(paper {paper['fig11.unthrottled']})\n\n")


def _fig12(out: io.StringIO, result: ex.Fig12Result, paper: dict) -> None:
    """Render Figure 12: throughput per channel and the headline ratios."""
    out.write("## Figure 12 — throughput comparison\n\n")
    rows = [
        [name, paper[f"fig12.bps.{name}"], f"{bps:.0f} b/s",
         f"{result.ber[name]:.2f}"]
        for name, bps in sorted(result.throughput_bps.items(),
                                key=lambda kv: -kv[1])
    ]
    out.write(format_table(["channel", "paper", "measured", "BER"], rows))
    out.write("\n\nRatios: "
              f"IccThread/NetSpectre = "
              f"{result.ratio('IccThreadCovert', 'NetSpectre'):.1f}x "
              f"(paper {paper['fig12.ratio.NetSpectre']})")
    for baseline in ("TurboCC", "DFScovert", "POWERT"):
        out.write(f"; vs {baseline} "
                  f"{result.ratio('IccSMTcovert', baseline):.0f}x "
                  f"({paper[f'fig12.ratio.{baseline}']})")
    out.write(".\n\n")


def _fig13(out: io.StringIO, result: ex.Fig13Result, paper: dict) -> None:
    """Render Figure 13: one cluster row per level."""
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
              f"{result.min_gap_cycles:.0f} cycles "
              f"(paper: {paper['fig13.min_gap_cycles']}).\n\n")


def _fig14(out: io.StringIO, result: ex.Fig14Result, paper: dict) -> None:
    """Render Figure 14: BER against each noise source."""
    out.write("## Figure 14 — noise sensitivity\n\n")
    rows = [[f"{int(rate)} events/s", f"{ber:.3f}"]
            for rate, ber in sorted(result.ber_vs_event_rate.items())]
    out.write(f"BER vs interrupt/context-switch rate (paper: "
              f"{paper['fig14.event_ber_max']}):\n\n")
    out.write(format_table(["system event rate", "BER"], rows))
    rows = [[f"{int(rate)} PHIs/s", f"{ber:.3f}"]
            for rate, ber in sorted(result.ber_vs_phi_rate.items())]
    out.write(f"\n\nBER vs concurrent App-PHI rate (paper: "
              f"{paper['fig14.phi_ber_order']}):\n\n")
    out.write(format_table(["App-PHI rate", "BER"], rows))
    out.write(f"\n\n7-zip neighbour BER: {result.sevenzip_ber:.3f} "
              f"(paper: {paper['fig14.sevenzip_ber']}).\n\n")


def _table1(out: io.StringIO, report: MitigationReport, paper: dict) -> None:
    """Render Table 1: the measured verdicts beside the paper's overheads."""
    out.write("## Table 1 — mitigations\n\n")
    labels = (("per_core_ldo", "per-core-vr"),
              ("improved_throttling", "improved-throttling"),
              ("secure_mode", "secure-mode"))
    rows = [[label] + [report.verdict(c, defender) for c in ex.ICC_CHANNELS]
            + [paper[f"table1.{defender}"]] for defender, label in labels]
    out.write(format_table(["mitigation", *ex.ICC_CHANNELS, "overhead"], rows))
    out.write(f"\n\nSecure-mode power overhead (measured): "
              f"{report.secure_mode_power_overhead * 100:.1f}% "
              f"(paper: {paper['table1.secure_mode_power']}).\n\n")


def _table2(out: io.StringIO, rows: List[ex.Table2Row], paper: dict) -> None:
    """Render Table 2: the comparison matrix with measured bandwidths."""
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


_SECTIONS = {
    "fig6": _fig6, "fig7": _fig7, "fig8": _fig8, "fig9": _fig9,
    "fig10": _fig10, "fig11": _fig11, "fig12": _fig12, "fig13": _fig13,
    "fig14": _fig14, "table1": _table1, "table2": _table2,
}


def render_section(name: str, result: Any) -> str:
    """REPORT.md's section of ``result``, a :class:`PaperResults` attribute.

    ``name`` is that attribute's name (``"fig6"`` ... ``"table2"``).
    """
    # Imported here, not with the module, so that importing the report
    # generator costs no more than it did before the claims existed.
    from repro.analysis.claims import CLAIMS

    out = io.StringIO()
    _SECTIONS[name](out, result, {claim.key: claim.paper for claim in CLAIMS})
    return out.getvalue()


def render_report(results: PaperResults) -> str:
    """The markdown report of ``results``: every section, in order."""
    return ("# IChannels reproduction report\n\n"
            "Generated by `python -m repro.analysis.report`; every value "
            "below is measured from the simulator described in "
            "DESIGN.md.\n\n"
            + "".join(render_section(name, getattr(results, name))
                      for name in _SECTIONS))


def generate_report() -> str:
    """Run every experiment and return the markdown report."""
    return render_report(run_experiments())


def main(argv: Optional[list] = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        description="Regenerate every IChannels table/figure into one "
                    "markdown report.")
    parser.add_argument("-o", "--output", default=None,
                        help="write the report to this file (default: stdout)")
    args = parser.parse_args(argv)
    report = generate_report()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {args.output} ({len(report.splitlines())} lines)")
    else:
        print(report, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
