"""CSV export of regenerated experiment data.

REPORT.md and the benchmark harnesses print human-readable rows; anyone
replotting the figures (matplotlib, gnuplot, a paper rebuttal) wants
machine-readable series instead.  ``export_all`` writes one CSV per
artifact of a :class:`~repro.analysis.report.PaperResults`; the command
line exports the paper run::

    python -m repro.analysis.export --out-dir results/

Each writer takes the corresponding result object from
:mod:`repro.analysis.experiments`, so custom runs can be exported too.
"""

from __future__ import annotations

import argparse
import csv
import os
from typing import Optional

from repro.analysis import experiments as ex
from repro.analysis.report import PaperResults, run_experiments
from repro.isa import IClass


def _write(path: str, header: "list[str]", rows: "list[list]") -> str:
    """Write one CSV file and return its path."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def export_fig6(result: "ex.Fig6Result", out_dir: str) -> "list[str]":
    """Vcc time series (main + calculix) as CSVs."""
    paths = []
    for name, series in (("fig6_vcc", result.vcc_samples),
                         ("fig6_calculix_vcc", result.calculix_vcc)):
        rows = [[float(t), float(v)]
                for t, v in zip(series.times_ns, series.values)]
        paths.append(_write(os.path.join(out_dir, f"{name}.csv"),
                            ["time_ns", "vcc_v"], rows))
    return paths


def export_fig7(result: "ex.Fig7Result", out_dir: str) -> "list[str]":
    """Operating points and the frequency timeline."""
    point_rows = [
        [p.system, p.freq_req_ghz, p.workload, p.vcc_projected,
         p.icc_projected, p.vcc_violation, p.icc_violation,
         p.freq_realized_ghz]
        for p in result.points
    ]
    paths = [_write(
        os.path.join(out_dir, "fig7_points.csv"),
        ["system", "freq_req_ghz", "workload", "vcc_v", "icc_a",
         "vcc_violation", "icc_violation", "freq_realized_ghz"],
        point_rows)]
    freq_rows = [[t, f] for t, f in result.timeline_freq]
    paths.append(_write(os.path.join(out_dir, "fig7_freq_timeline.csv"),
                        ["time_ns", "freq_ghz"], freq_rows))
    return paths


def export_fig8(result: "ex.Fig8Result", out_dir: str) -> "list[str]":
    """TP samples per part and the per-iteration deltas."""
    tp_rows = [
        [part, sample]
        for part, samples in result.tp_us_by_part.items()
        for sample in samples
    ]
    paths = [_write(os.path.join(out_dir, "fig8_tp_samples.csv"),
                    ["part", "tp_us"], tp_rows)]
    delta_rows = [
        [part, i + 1, delta]
        for part, deltas in result.iteration_deltas_ns.items()
        for i, delta in enumerate(deltas)
    ]
    paths.append(_write(os.path.join(out_dir, "fig8_iteration_deltas.csv"),
                        ["part", "iteration", "delta_ns"], delta_rows))
    return paths


def export_fig10(result: "ex.Fig10Result", out_dir: str) -> "list[str]":
    """The TP sweep and the preceded-by ladder."""
    sweep_rows = [
        [label, freq, cores, tp]
        for (label, freq, cores), tp in sorted(result.sweep.items())
    ]
    paths = [_write(os.path.join(out_dir, "fig10_sweep.csv"),
                    ["class", "freq_ghz", "cores", "tp_us"], sweep_rows)]
    preceded_rows = [
        [iclass.label, result.preceded[iclass.label],
         result.levels[iclass.label]]
        for iclass in sorted(IClass)
        if iclass.label in result.preceded
    ]
    paths.append(_write(os.path.join(out_dir, "fig10_preceded.csv"),
                        ["preceding_class", "tp_us", "level"], preceded_rows))
    return paths


def export_fig12(result: "ex.Fig12Result", out_dir: str) -> "list[str]":
    """Throughput/BER per channel."""
    rows = [
        [name, bps, result.ber[name]]
        for name, bps in sorted(result.throughput_bps.items(),
                                key=lambda kv: -kv[1])
    ]
    return [_write(os.path.join(out_dir, "fig12_throughput.csv"),
                   ["channel", "throughput_bps", "ber"], rows)]


def export_fig13(result: "ex.Fig13Result", out_dir: str) -> "list[str]":
    """Per-level receiver readings."""
    rows = [
        [symbol, reading]
        for symbol, readings in sorted(result.samples_by_symbol.items())
        for reading in readings
    ]
    return [_write(os.path.join(out_dir, "fig13_levels.csv"),
                   ["symbol", "reading_tsc"], rows)]


def export_fig14(result: "ex.Fig14Result", out_dir: str) -> "list[str]":
    """Both BER sweeps."""
    rows = ([["system_events", rate, ber]
             for rate, ber in sorted(result.ber_vs_event_rate.items())]
            + [["app_phi", rate, ber]
               for rate, ber in sorted(result.ber_vs_phi_rate.items())]
            + [["sevenzip", 0.0, result.sevenzip_ber]])
    return [_write(os.path.join(out_dir, "fig14_ber.csv"),
                   ["noise_kind", "rate_per_s", "ber"], rows)]


def export_resilience(result: "ex.ResilienceResult",
                      out_dir: str) -> "list[str]":
    """The fault-resilience sweep, one row per sweep cell."""
    rows = [
        [p.channel, p.intensity, p.mitigation, p.residual_ber, p.raw_ber,
         p.goodput_bps, p.delivered_fraction, p.attempts, p.recalibrations,
         p.degraded_fraction]
        for p in result.points
    ]
    return [_write(
        os.path.join(out_dir, "resilience_ber.csv"),
        ["channel", "intensity", "mitigation", "residual_ber", "raw_ber",
         "goodput_bps", "delivered_fraction", "attempts", "recalibrations",
         "degraded_fraction"],
        rows)]


_WRITERS = (("fig6", export_fig6), ("fig7", export_fig7),
            ("fig8", export_fig8), ("fig10", export_fig10),
            ("fig12", export_fig12), ("fig13", export_fig13),
            ("fig14", export_fig14), ("resilience_sweep", export_resilience))


def export_all(results: PaperResults, out_dir: str) -> "list[str]":
    """Write the CSVs of every exportable experiment in ``results``."""
    os.makedirs(out_dir, exist_ok=True)
    return [path for name, write in _WRITERS
            for path in write(getattr(results, name), out_dir)]


def main(argv: Optional[list] = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        description="Export regenerated experiment series as CSV files.")
    parser.add_argument("--out-dir", default="results",
                        help="directory for the CSV files (default: results/)")
    args = parser.parse_args(argv)
    paths = export_all(run_experiments(), args.out_dir)
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
