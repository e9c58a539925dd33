"""Static feasibility analysis: which channels does a part support?

Given only a :class:`~repro.soc.config.ProcessorConfig`, predict — from
the electrical model, before simulating anything — whether each
IChannels variant can work and why.  The prediction logic mirrors what
the paper's characterisation establishes empirically:

* a channel needs the four sender levels to land on *distinct* rail
  targets after VID quantisation, with TP gaps a TSC can resolve;
* IccSMTcovert additionally needs SMT;
* IccCoresCovert additionally needs at least two cores on a *shared*
  rail (per-core regulators kill it);
* everything needs a slew rate slow enough that level gaps exceed the
  reliable-decoding threshold.

The simulation-backed tests cross-check these predictions against real
channel runs on every preset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.levels import ChannelLocation, narrow_symbol_classes
from repro.soc.config import ProcessorConfig


@dataclass(frozen=True)
class ChannelFeasibility:
    """Verdict for one channel variant on one part."""

    location: ChannelLocation
    feasible: bool
    min_level_gap_tsc: float
    reasons: "tuple[str, ...]"


@dataclass(frozen=True)
class FeasibilityReport:
    """Per-channel verdicts plus the underlying level geometry."""

    config_name: str
    level_tp_us: Dict[str, float]
    channels: List[ChannelFeasibility]

    def verdict(self, location: ChannelLocation) -> ChannelFeasibility:
        """The verdict for one placement."""
        for channel in self.channels:
            if channel.location == location:
                return channel
        raise KeyError(location)

    def any_feasible(self) -> bool:
        """Whether the part is vulnerable to at least one channel."""
        return any(channel.feasible for channel in self.channels)


def analyze(config: ProcessorConfig, freq_ghz: float = None,
            usable_gap_tsc: float = 2000.0) -> FeasibilityReport:
    """Predict channel feasibility for ``config`` at ``freq_ghz``.

    ``usable_gap_tsc`` is the minimum TSC-cycle separation between
    adjacent level TPs that threshold decoding can survive in practice
    (the paper measures >2 K-cycle gaps on working configurations).
    """
    freq = freq_ghz if freq_ghz is not None else config.base_freq_ghz
    table = config.operating_points()
    baseline = table.vcc(freq)
    spec = config.vr_spec()
    tsc_ghz = config.base_freq_ghz

    # Rail target per sender level, quantised the way the PMU commands it.
    ladder = narrow_symbol_classes(config.max_vector_bits)
    rail_base = spec.quantize_vid(baseline)
    targets = {
        symbol: spec.quantize_vid(baseline + table.class_step_v(iclass, freq))
        for symbol, iclass in ladder.items()
    }
    # TP per level: command latency + ramp from the baseline rail.
    tp_ns = {
        symbol: spec.command_latency_ns
        + abs(target - rail_base) * 1000.0 / spec.slew_mv_per_us * 1000.0
        for symbol, target in targets.items()
    }
    level_tp_us = {
        ladder[symbol].label: tp / 1000.0 for symbol, tp in tp_ns.items()
    }
    ordered = sorted(tp_ns.values())
    gaps_tsc = [
        (b - a) * tsc_ghz for a, b in zip(ordered, ordered[1:])
    ]
    min_gap = min(gaps_tsc) if gaps_tsc else 0.0

    def base_reasons() -> List[str]:
        reasons = []
        if min_gap < usable_gap_tsc:
            reasons.append(
                f"adjacent level TPs only {min_gap:.0f} TSC cycles apart "
                f"(< {usable_gap_tsc:.0f}): VID quantisation or the "
                f"{spec.slew_mv_per_us:g} mV/us slew collapses the ladder"
            )
        return reasons

    channels: List[ChannelFeasibility] = []

    thread_reasons = base_reasons()
    channels.append(ChannelFeasibility(
        ChannelLocation.SAME_THREAD,
        feasible=not thread_reasons,
        min_level_gap_tsc=min_gap,
        reasons=tuple(thread_reasons),
    ))

    smt_reasons = base_reasons()
    if not config.supports_smt:
        smt_reasons.append("no SMT: there is no co-located sibling thread")
    channels.append(ChannelFeasibility(
        ChannelLocation.ACROSS_SMT,
        feasible=not smt_reasons,
        min_level_gap_tsc=min_gap,
        reasons=tuple(smt_reasons),
    ))

    cores_reasons = base_reasons()
    if config.n_cores < 2:
        cores_reasons.append("single core: nothing to cross")
    if config.per_core_rails:
        cores_reasons.append(
            "per-core regulators: transitions never serialise across cores"
        )
    channels.append(ChannelFeasibility(
        ChannelLocation.ACROSS_CORES,
        feasible=not cores_reasons,
        min_level_gap_tsc=min_gap,
        reasons=tuple(cores_reasons),
    ))

    return FeasibilityReport(
        config_name=f"{config.codename} ({config.name})",
        level_tp_us=level_tp_us,
        channels=channels,
    )
