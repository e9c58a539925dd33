"""One record per quantitative claim of the paper's evaluation.

:data:`CLAIMS` holds each anchor of Figs. 6-14, Tables 1-2 and §6.5,
plus docs/FAULTS.md's resilience claim, once.  REPORT.md's paper column
(:mod:`repro.analysis.report`), ``tests/test_claims.py`` (every claim on
one full-scale run) and ``benchmarks/bench_resilience.py`` all read it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.analysis.experiments import ICC_CHANNELS
from repro.isa import IClass

KINDS = ("range", "ratio", "ordering", "equals")
_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
          ">=": operator.ge}


def _interval(text: str) -> Tuple[float, float, bool, bool]:
    """``(lo, hi, lo_open, hi_open)`` of an interval such as ``"(5, 12]"``."""
    if text[:1] not in "[(" or text[-1:] not in "])" or text.count(",") != 1:
        raise ValueError(f"malformed interval {text!r}")
    lo, hi = (float(part) for part in text[1:-1].split(","))
    if lo > hi:
        raise ValueError(f"empty interval {text!r}")
    return lo, hi, text[0] == "(", text[-1] == ")"


def _ordering(text: str) -> Tuple[Callable[[Any, Any], bool], float]:
    """The comparison and signed slack of an ordering such as ``"<= 0.05"``."""
    op, _, tolerance = text.partition(" ")
    if op not in _ORDER:
        raise ValueError(f"malformed ordering {text!r}")
    slack = float(tolerance or 0.0)
    return _ORDER[op], slack if op.startswith("<") else -slack


@dataclass(frozen=True)
class Claim:
    """One paper anchor, the paper text REPORT.md prints for it, its bound.

    ``key`` reads ``<experiment>.<anchor>``; the prefix names the
    :class:`~repro.analysis.report.PaperResults` attribute ``measure`` reads.
    ``paper`` is empty where REPORT.md prints no paper text for the claim.
    ``bound`` by ``kind``: ``range`` and ``ratio`` (a quotient of two
    throughputs) take an interval such as ``"(2000, inf)"``, brackets
    closed and parentheses open; ``ordering`` takes the comparison each
    measured value bears to the next, optionally relaxed by a tolerance
    (``"<= 0.05"``: ``a <= b + 0.05``; ``">= 0.05"``: ``a >= b - 0.05``);
    ``equals`` takes the exact expected value.
    """

    key: str
    source: str
    paper: str
    kind: str
    bound: Any
    measure: Callable[[Any], Any] = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"claim {self.key}: unknown kind {self.kind!r}")
        if self.kind in ("range", "ratio"):
            _interval(self.bound)
        elif self.kind == "ordering":
            _ordering(self.bound)

    @property
    def experiment(self) -> str:
        """The :class:`PaperResults` attribute this claim measures."""
        return self.key.split(".", 1)[0]

    def holds(self, value: Any) -> bool:
        """True when a measured ``value`` meets the bound."""
        if self.kind == "equals":
            return bool(value == self.bound)
        if self.kind == "ordering":
            compare, slack = _ordering(self.bound)
            return all(compare(a, b + slack) for a, b in zip(value, value[1:]))
        lo, hi, lo_open, hi_open = _interval(self.bound)
        return ((value > lo if lo_open else value >= lo)
                and (value < hi if hi_open else value <= hi))

    def violation(self, result: Any) -> Optional[str]:
        """None when the claim holds on ``result``, else why it fails."""
        value = self.measure(result)
        if self.holds(value):
            return None
        return (f"{self.key} ({self.source}): measured {value!r}, "
                f"bound {self.kind} {self.bound!r}")


def _avx2(result: Any, system: str, freq_ghz: float) -> Tuple[Any, ...]:
    """(Vcc_max exceeded, Icc_max exceeded, GHz) at a Fig. 7 AVX2 point."""
    point = next(p for p in result.points if p.workload == "AVX2"
                 and (p.system, p.freq_req_ghz) == (system, freq_ghz))
    return point.vcc_violation, point.icc_violation, point.freq_realized_ghz


def _median(values: Any) -> float:
    """The median of ``values``, as REPORT.md computes it."""
    return float(np.median(values))


def _swing(trace: Any) -> float:
    """Highest minus lowest value of a sampled trace."""
    lo, hi = trace.minmax()
    return hi - lo


def _ends(values: list) -> Tuple[Any, Any]:
    """The first and last of ``values``."""
    return values[0], values[-1]


def _by_class(tps: Dict[Any, float], *coords: Any) -> list:
    """Fig. 10 TPs at ``coords`` (if any), lightest instruction class first."""
    return [tps[(c.label, *coords) if coords else c.label]
            for c in sorted(IClass)]


def _row(rows: Any, proposal: str, *flags: str) -> Tuple[Any, ...]:
    """Named fields of the Table 2 row of ``proposal``."""
    row = next(row for row in rows if row.proposal == proposal)
    return tuple(getattr(row, flag) for flag in flags)


def _nominal(run: Any, mitigation: str) -> float:
    """Residual BER at nominal fault intensity in one resilience run."""
    return run.cell("cores", 1.0, mitigation).residual_ber


_H256, _H512 = "256b_Heavy", "512b_Heavy"

CLAIMS: Tuple[Claim, ...] = (
    Claim("fig6.baseline_mv", "Figure 6", "788 mV", "range", "[780, 796]",
          lambda r: r.vcc_start_mv),
    Claim("fig6.step_core1_mv", "Figure 6", "+8 mV", "range", "(5, 12)",
          lambda r: r.step_core1_mv),
    Claim("fig6.step_core0_mv", "Figure 6", "+9 mV", "range", "(5, 12)",
          lambda r: r.step_core0_mv),
    Claim("fig6.return_mv", "Figure 6", "back to start", "range", "(-1, 1)",
          lambda r: r.return_mv),
    Claim("fig6.freq_ghz", "Figure 6", "flat at 2 GHz", "equals", (2.0, 2.0),
          lambda r: (r.freq_ghz_start, r.freq_ghz_end)),
    Claim("fig6.calculix_swing_mv", "Figure 6", "", "range", "(5, inf)",
          lambda r: 1000.0 * _swing(r.calculix_vcc)),
    Claim("fig6.calculix_phases", "Figure 6", "", "range", "(2, inf)",
          lambda r: r.calculix_phases),
    Claim("fig7.cfl_49_avx2_limits", "Figure 7", "", "equals", (True, False),
          lambda r: _avx2(r, "Coffee Lake", 4.9)[:2]),
    Claim("fig7.cfl_49_avx2_ghz", "Figure 7", "", "range", "(-inf, 4.9)",
          lambda r: _avx2(r, "Coffee Lake", 4.9)[2]),
    Claim("fig7.cfl_48_avx2_limits", "Figure 7", "", "equals", (False, False),
          lambda r: _avx2(r, "Coffee Lake", 4.8)[:2]),
    Claim("fig7.cnl_31_avx2_limits", "Figure 7", "", "equals", (False, True),
          lambda r: _avx2(r, "Cannon Lake", 3.1)[:2]),
    Claim("fig7.cnl_31_avx2_ghz", "Figure 7", "", "range", "(-inf, 3.1)",
          lambda r: _avx2(r, "Cannon Lake", 3.1)[2]),
    Claim("fig7.cnl_22_avx2_limits", "Figure 7", "", "equals", (False, False),
          lambda r: _avx2(r, "Cannon Lake", 2.2)[:2]),
    Claim("fig7.cnl_22_avx2_ghz", "Figure 7", "", "equals", 2.2,
          lambda r: _avx2(r, "Cannon Lake", 2.2)[2]),
    Claim("fig7.non_avx_violations", "Figure 7", "", "equals", 0,
          lambda r: sum(p.vcc_violation or p.icc_violation
                        for p in r.points if p.workload == "Non-AVX")),
    Claim("fig7.timeline_start_ghz", "Figure 7", "", "equals", 3.1,
          lambda r: r.timeline_freq[0][1]),
    Claim("fig7.timeline_floor_ghz", "Figure 7", "", "range", "(-inf, 2)",
          lambda r: min(f for _, f in r.timeline_freq)),
    Claim("fig7.not_thermal", "Figure 7", "not thermal", "range",
          "(30, inf)", lambda r: r.tj_max_c - r.temp_max_c),
    Claim("fig8.tp_haswell_us", "Figure 8", "~9 us", "range", "[5, 10]",
          lambda r: _median(r.tp_us_by_part["Haswell"])),
    Claim("fig8.tp_coffee_lake_us", "Figure 8", "12-15 us", "range",
          "[10, 16]", lambda r: _median(r.tp_us_by_part["Coffee Lake"])),
    Claim("fig8.tp_cannon_lake_us", "Figure 8", "12-15 us", "range",
          "[10, 16]", lambda r: _median(r.tp_us_by_part["Cannon Lake"])),
    Claim("fig8.haswell_below_mbvr", "Figure 8", "", "ordering", "<",
          lambda r: [_median(r.tp_us_by_part[p])
                     for p in ("Haswell", "Coffee Lake")]),
    Claim("fig8.cfl_first_iteration_ns", "Figure 8",
          "first CFL iteration +8-15 ns", "range", "[8, 15]",
          lambda r: r.iteration_deltas_ns["Coffee Lake"][0]),
    Claim("fig8.cfl_second_iteration_ns", "Figure 8", "", "range", "[-1, 1]",
          lambda r: r.iteration_deltas_ns["Coffee Lake"][1]),
    Claim("fig8.haswell_flat_ns", "Figure 8", "Haswell flat", "range",
          "[0, 1)", lambda r: max(map(abs, r.iteration_deltas_ns["Haswell"]))),
    Claim("fig9.wake_ns", "Figure 9", "8-15 ns", "range", "(-inf, 20]",
          lambda r: r.didt_wake_ns),
    Claim("fig9.tp_us", "Figure 9", "", "range", "(5, inf)",
          lambda r: r.didt_tp_us),
    Claim("fig9.wake_share", "Figure 9", "~0.1%", "range", "(-inf, 0.005)",
          lambda r: r.didt_wake_ns / (r.didt_tp_us * 1000.0)),
    Claim("fig9.didt_ramp_v", "Figure 9", "", "range", "(0, inf)",
          lambda r: _swing(r.didt_vcc)),
    Claim("fig9.limit_floor_ghz", "Figure 9", "from 3.1 GHz", "range",
          "(-inf, 3.1)", lambda r: min(f for _, f in r.limit_freq)),
    # Fig. 10(a) is monotone only up to VID-quantisation ties and the
    # ~12 ns power-gate wake; the paper, too, sees ~5 levels in 7 classes.
    Claim("fig10.intensity_order_1000mhz", "Figure 10", "", "ordering",
          "<= 0.05", lambda r: _by_class(r.sweep, 1.0, 1)),
    Claim("fig10.intensity_order_1400mhz", "Figure 10", "", "ordering",
          "<= 0.05", lambda r: _by_class(r.sweep, 1.4, 1)),
    Claim("fig10.intensity_span_1000mhz", "Figure 10", "", "ordering", "<",
          lambda r: _ends(_by_class(r.sweep, 1.0, 1))),
    Claim("fig10.intensity_span_1400mhz", "Figure 10", "", "ordering", "<",
          lambda r: _ends(_by_class(r.sweep, 1.4, 1))),
    Claim("fig10.freq_order_256h", "Figure 10", "", "ordering", "<=",
          lambda r: [r.sweep[(_H256, f, 1)] for f in (1.0, 1.4)]),
    Claim("fig10.freq_order_512h", "Figure 10", "", "ordering", "<=",
          lambda r: [r.sweep[(_H512, f, 1)] for f in (1.0, 1.4)]),
    Claim("fig10.core_order_256h", "Figure 10", "", "ordering", "<",
          lambda r: [r.sweep[(_H256, 1.0, n)] for n in (1, 2)]),
    Claim("fig10.core_order_512h", "Figure 10", "", "ordering", "<",
          lambda r: [r.sweep[(_H512, 1.0, n)] for n in (1, 2)]),
    Claim("fig10.heavy256_one_core_us", "Figure 10",
          "256b_Heavy ~5 us (1 core)", "range", "[3.5, 7]",
          lambda r: r.sweep[(_H256, 1.0, 1)]),
    Claim("fig10.heavy256_two_cores_us", "Figure 10",
          "~9 us (2 cores) at 1 GHz", "range", "[7, 11]",
          lambda r: r.sweep[(_H256, 1.0, 2)]),
    Claim("fig10.preceded_order", "Figure 10", "", "ordering", ">= 0.05",
          lambda r: _by_class(r.preceded)),
    Claim("fig10.preceded_span", "Figure 10", "", "ordering", ">",
          lambda r: _ends(_by_class(r.preceded))),
    Claim("fig10.levels", "Figure 10", "at least five levels L1-L5", "range",
          "[5, inf)", lambda r: len(set(r.levels.values()))),
    Claim("fig11.throttled", "Figure 11", "~0.75", "range", "(0.72, 0.78)",
          lambda r: float(np.mean(r.throttled))),
    Claim("fig11.unthrottled", "Figure 11", "~0", "range", "(-inf, 0.05)",
          lambda r: float(np.mean(r.unthrottled))),
    Claim("fig12.error_free", "Figure 12", "", "equals", 0.0,
          lambda r: max(r.ber.values())),
    *(Claim(f"fig12.bps.{name}", "Figure 12", paper, "range", bound,
            lambda r, name=name: r.throughput_bps[name])
      for name, paper, bound in (
          ("IccThreadCovert", "2899 b/s", "(2000, inf)"),
          ("IccSMTcovert", "2899 b/s", "(2000, inf)"),
          ("IccCoresCovert", "2899 b/s", "(2000, inf)"),
          ("NetSpectre", "1500 b/s", "(1000, inf)"),
          ("TurboCC", "61 b/s", "(-inf, 100)"),
          ("DFScovert", "20 b/s", "[14, 20]"),
          ("POWERT", "122 b/s", "[85.4, 122]"))),
    *(Claim(f"fig12.ratio.{baseline}", "Figure 12", paper, "ratio", bound,
            lambda r, ours=ours, baseline=baseline: r.ratio(ours, baseline))
      for ours, baseline, paper, bound in (
          ("IccThreadCovert", "NetSpectre", "2x", "[1.5, 2.5]"),
          ("IccSMTcovert", "TurboCC", "47x", "[30.55, 63.45]"),
          ("IccSMTcovert", "DFScovert", "145x", "(100, 195.75]"),
          ("IccSMTcovert", "POWERT", "24x", "(20, inf)"))),
    Claim("fig13.min_gap_cycles", "Figure 13", "> 2000", "range",
          "(2000, inf)", lambda r: r.min_gap_cycles),
    Claim("fig13.clusters", "Figure 13", "", "equals", (4, 3, 4),
          lambda r: (len(r.samples_by_symbol), len(r.thresholds),
                     sum(map(bool, r.samples_by_symbol.values())))),
    Claim("fig14.event_ber_max", "Figure 14", "low even when highly noisy",
          "range", "(-inf, 0.15)",
          lambda r: max(r.ber_vs_event_rate.values())),
    Claim("fig14.phi_ber_order", "Figure 14", "grows with rate", "ordering",
          "<=", lambda r: _ends([ber for _, ber
                                 in sorted(r.ber_vs_phi_rate.items())])),
    Claim("fig14.sevenzip_ber", "Figure 14", "< 0.07", "range",
          "(-inf, 0.07)", lambda r: r.sevenzip_ber),
    # A Table 1 row's measured verdicts; REPORT.md prints the paper's
    # overhead cell for the row beside them.
    *(Claim(f"table1.{defender}", "Table 1", overhead, "equals", verdicts,
            lambda r, d=defender: tuple(r.verdict(c, d) for c in ICC_CHANNELS))
      for defender, overhead, verdicts in (
          ("per_core_ldo", "11%-13% more core area",
           ("PARTIAL", "PARTIAL", "MITIGATED")),
          ("improved_throttling", "some design effort",
           ("OPEN", "MITIGATED", "OPEN")),
          ("secure_mode", "4%-11% additional power", ("MITIGATED",) * 3))),
    Claim("table1.secure_mode_power", "Table 1", "4-11%", "range",
          "[0.04, 0.11]", lambda r: r.secure_mode_power_overhead),
    Claim("table2.ichannels_features", "Table 2", "", "equals", (True,) * 5,
          lambda r: _row(r, "IChannels", "same_core", "cross_smt",
                         "cross_core", "turbo_independent",
                         "root_cause_identified")),
    Claim("table2.netspectre_features", "Table 2", "", "equals",
          (True, False), lambda r: _row(r, "NetSpectre", "same_core",
                                        "cross_core")),
    Claim("table2.turbocc_features", "Table 2", "", "equals", (True, False),
          lambda r: _row(r, "TurboCC", "cross_core", "turbo_independent")),
    Claim("table2.bw_order", "Table 2", "", "ordering", ">",
          lambda r: [_row(r, name, "bw_bps")[0]
                     for name in ("IChannels", "NetSpectre", "TurboCC")]),
    Claim("side_channel.accuracy", "§6.5", "", "range", "[0.8, 1]",
          lambda r: min(r.accuracy.values())),
    Claim("side_channel.key_bits_missed", "§6.5", "", "range", "[0, 1]",
          lambda r: r.key_bits_total - min(r.key_bits_recovered.values())),
    Claim("side_channel.confusion_diagonal", "§6.5", "", "range", "[0.8, 1]",
          lambda r: min(sum(n for (a, b), n in m.items() if a == b)
                        / sum(m.values()) for m in r.confusion.values())),
    # docs/FAULTS.md over seeds 1-10 at nominal fault intensity: at how
    # many seeds each half of the claim holds.
    Claim("resilience.adaptive_holds", "docs/FAULTS.md", "", "range",
          "[7, 10]", lambda runs: sum(_nominal(r, "adaptive") <= 1e-2
                                      for r in runs)),
    Claim("resilience.arq_fails", "docs/FAULTS.md", "", "range", "[3, 10]",
          lambda runs: sum(_nominal(r, "arq") > 1e-1 for r in runs)),
    Claim("resilience.adaptive_beats_arq", "docs/FAULTS.md", "", "range",
          "[8, 10]", lambda runs: sum(_nominal(r, "adaptive")
                                      <= _nominal(r, "arq") for r in runs)),
)
