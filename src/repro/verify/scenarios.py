"""Canonical scenarios the golden-trace harness pins.

Each scenario is a module-level function reducing one end-to-end
behaviour of the reproduction to a digest *document* (plain JSON types;
see :mod:`repro.verify.digest`).  The set is chosen so the emergent
Section-5 behaviours are all covered:

* ``demo_transfer`` — the three covert channels transferring the demo
  payload, pinned down to every symbol, receiver measurement, rail
  breakpoint and deterministic metrics counter;
* ``fig6_slice`` — Eq.-1 guardband steps (load-line physics);
* ``fig8_slice`` — TP quantization distributions across the three
  parts, plus power-gate wake deltas;
* ``fig13_slice`` — receiver TP level clusters and decode thresholds;
* ``fig14_slice`` — BER under OS noise, beside a PHI-injecting app and
  beside 7-zip (one point of each Figure 14 sweep);
* ``resilience_slice`` — the fault-injection resilience sweep at
  nominal intensity across all three mitigation stacks;
* ``scenario_baseline_cores`` / ``scenario_trace_replay`` /
  ``scenario_interference_2pair`` — declarative-library scenarios
  (:mod:`repro.scenarios`) pinned as full run documents, covering the
  single-pair baseline, trace-driven background replay, and the
  multi-tenant shared-PMU topology;
* ``matrix_2x2`` — a plain/adaptive x none/secure corner of the
  attacker-vs-defender mitigation matrix
  (:mod:`repro.mitigations.matrix`), whose undefended plain cell must
  stay bit-identical to ``scenario_baseline_cores``.

Scenarios marked ``supports_runner`` (``resilience_slice`` and
``matrix_2x2``) accept a :class:`~repro.runner.SweepRunner`, which the
determinism auditor uses to prove that worker count and cache state
cannot change any digest.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.experiments import (
    fig6_voltage_steps,
    fig8_throttling,
    fig13_level_distribution,
    fig14_noise_sensitivity,
    resilience_sweep,
)
from repro.errors import ConfigError
from repro.obs import Tracer, metrics_fingerprint, tracing
from repro.runner import SweepRunner
from repro.scenarios.run import baseline_channel
from repro.scenarios.spec import CHANNEL_KINDS
from repro.soc.system import System
from repro.verify.digest import (
    content_digest,
    summarize_array,
    summarize_breakpoints,
)

#: Payload every transfer-shaped scenario sends (same as the CLI demo).
DEMO_MESSAGE = b"IChannels"


def _rail_fingerprint(system: System) -> Dict[str, Any]:
    """Breakpoint fingerprints of the system's observable signals."""
    vcc_times, vcc_values = system.vcc_signal().breakpoints()
    icc_times, icc_values = system.icc_signal().breakpoints()
    freq_times, freq_values = system.freq_signal().breakpoints()
    return {
        "vcc": summarize_breakpoints(vcc_times, vcc_values, name="vcc"),
        "icc": summarize_breakpoints(icc_times, icc_values, name="icc"),
        "freq": summarize_breakpoints(freq_times, freq_values, name="freq"),
    }


def demo_transfer() -> Dict[str, Any]:
    """The three-channel demo, reduced to a digest document.

    Runs each channel on a fresh ``baseline_{kind}`` system under an active
    tracer, and records the full transfer fingerprint (symbols,
    measurements, timings), the rail breakpoints, and the deterministic
    slice of the metrics registry.
    """
    document: Dict[str, Any] = {}
    tracer = Tracer(events=False)
    with tracing(tracer):
        for kind in CHANNEL_KINDS:
            channel = baseline_channel(kind)
            report = channel.transfer(DEMO_MESSAGE)
            document[type(channel).__name__] = {
                "report": report.fingerprint(),
                "rails": _rail_fingerprint(channel.system),
            }
    document["metrics"] = metrics_fingerprint(tracer)
    return document


def fig6_slice() -> Dict[str, Any]:
    """Figure 6 guardband steps (Eq. 1 emergents) as a digest document."""
    result = fig6_voltage_steps()
    return {
        "steps": {
            "vcc_start_mv": result.vcc_start_mv,
            "step_core1_mv": result.step_core1_mv,
            "step_core0_mv": result.step_core0_mv,
            "return_mv": result.return_mv,
            "freq_ghz_start": result.freq_ghz_start,
            "freq_ghz_end": result.freq_ghz_end,
        },
        "vcc_samples": result.vcc_samples.fingerprint(),
        "calculix": {
            "vcc_samples": result.calculix_vcc.fingerprint(),
            "phases": int(result.calculix_phases),
        },
    }


def fig8_slice() -> Dict[str, Any]:
    """Figure 8 TP distributions (trimmed sweep) as a digest document."""
    result = fig8_throttling(trials=6)
    return {
        "tp_us": {part: [float(v) for v in values]
                  for part, values in result.tp_us_by_part.items()},
        "iteration_deltas_ns": {
            part: [float(v) for v in values]
            for part, values in result.iteration_deltas_ns.items()
        },
    }


def fig13_slice() -> Dict[str, Any]:
    """Figure 13 receiver level clusters as a digest document."""
    result = fig13_level_distribution(symbols_per_level=6, seed=13)
    return {
        "samples_by_symbol": {
            str(symbol): summarize_array(values, name=f"symbol{symbol}")
            for symbol, values in sorted(result.samples_by_symbol.items())
        },
        "thresholds": [float(t) for t in result.thresholds],
        "separations": [[int(a), int(b), float(gap)]
                        for a, b, gap in result.separations],
        "min_gap_cycles": float(result.min_gap_cycles),
    }


def fig14_slice() -> Dict[str, Any]:
    """Figure 14 BER points (one per noise source) as a digest document."""
    result = fig14_noise_sensitivity(event_rates=(10000.0,),
                                     phi_rates=(1000.0,), trials=1)
    return {
        "ber_vs_event_rate": {f"{rate:g}": float(ber) for rate, ber
                              in result.ber_vs_event_rate.items()},
        "ber_vs_phi_rate": {f"{rate:g}": float(ber) for rate, ber
                            in result.ber_vs_phi_rate.items()},
        "sevenzip_ber": float(result.sevenzip_ber),
    }


def resilience_slice(runner: Optional[SweepRunner] = None) -> Dict[str, Any]:
    """Resilience sweep at nominal fault intensity as a digest document."""
    result = resilience_sweep(
        payload=b"\x5a\x0f\xc3\x3c",
        intensities=(1.0,),
        channels=("cores",),
        trials=1,
        runner=runner,
    )
    return {
        "payload_bytes": result.payload_bytes,
        "trials": result.trials,
        "points": {
            f"{p.channel}/{p.mitigation}@{p.intensity:g}":
                dataclasses.asdict(p)
            for p in result.points
        },
    }


def scenario_baseline_cores() -> Dict[str, Any]:
    """The declarative ``baseline_cores`` scenario's full run document."""
    from repro.scenarios.run import run_document

    return run_document("baseline_cores")


def scenario_trace_replay() -> Dict[str, Any]:
    """The declarative ``trace_replay`` scenario's full run document."""
    from repro.scenarios.run import run_document

    return run_document("trace_replay")


def scenario_interference_2pair() -> Dict[str, Any]:
    """The declarative two-tenant interference scenario's run document."""
    from repro.scenarios.run import run_document

    return run_document("interference_2pair")


def matrix_2x2(runner: Optional[SweepRunner] = None) -> Dict[str, Any]:
    """A 2x2 corner of the mitigation matrix as a digest document.

    Plain and adaptive cross-core attackers against no defence and the
    secure mode: one golden pins an open cell whose underlying run
    document is bit-identical to ``scenario_baseline_cores``, a
    session cell, and two defeated cells.  Costs are skipped — the
    cost harness has its own benchmark — so the golden stays cheap.
    """
    from repro.mitigations.matrix import run_matrix

    report = run_matrix(attackers=("plain_cores", "adaptive_cores"),
                        defenders=("none", "secure_mode"),
                        runner=runner, include_costs=False)
    return report.document()


@dataclass(frozen=True)
class Scenario:
    """One canonical scenario of the golden-trace harness.

    Parameters
    ----------
    name:
        Stable identifier; also the golden file's stem.
    fn:
        Module-level function producing the digest document.  Takes a
        ``runner`` keyword when ``supports_runner`` is true.
    supports_runner:
        Whether the determinism auditor may vary
        :class:`~repro.runner.SweepRunner` worker counts and cache
        state for this scenario.
    description:
        One line for ``python -m repro.verify --list``.
    """

    name: str
    fn: Callable[..., Dict[str, Any]]
    supports_runner: bool
    description: str


#: Registry of canonical scenarios, in checking order.
SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("demo_transfer", demo_transfer, False,
             "three covert channels transferring the demo payload"),
    Scenario("fig6_slice", fig6_slice, False,
             "Eq.-1 guardband voltage steps (Figure 6)"),
    Scenario("fig8_slice", fig8_slice, False,
             "TP quantization distributions (Figure 8, trimmed)"),
    Scenario("fig13_slice", fig13_slice, False,
             "receiver TP level clusters and thresholds (Figure 13)"),
    Scenario("fig14_slice", fig14_slice, False,
             "BER under OS noise, App PHIs and 7-zip (Figure 14, trimmed)"),
    Scenario("resilience_slice", resilience_slice, True,
             "fault-injection resilience sweep at nominal intensity"),
    Scenario("scenario_baseline_cores", scenario_baseline_cores, False,
             "declarative library: single cross-core pair baseline"),
    Scenario("scenario_trace_replay", scenario_trace_replay, False,
             "declarative library: cross-core pair beside trace replay"),
    Scenario("scenario_interference_2pair", scenario_interference_2pair,
             False,
             "declarative library: two tenant pairs sharing one PMU"),
    Scenario("matrix_2x2", matrix_2x2, True,
             "mitigation matrix corner: plain/adaptive x none/secure"),
)


def scenario_names() -> List[str]:
    """Names of all registered scenarios, in checking order."""
    return [scenario.name for scenario in SCENARIOS]


def get_scenario(name: str) -> Scenario:
    """The registered scenario called ``name``.

    Raises :class:`~repro.errors.ConfigError` with the valid names on a
    typo, mirroring the CLI's error behaviour.
    """
    for scenario in SCENARIOS:
        if scenario.name == name:
            return scenario
    raise ConfigError(
        f"unknown scenario {name!r}; valid names: {', '.join(scenario_names())}")


def compute_document(name: str,
                     runner: Optional[SweepRunner] = None) -> Dict[str, Any]:
    """Run one scenario and return its digest document.

    ``runner`` is forwarded only to scenarios that support it; passing
    one to a serial-only scenario is silently ignored (the auditor
    relies on this when sweeping variations over every scenario).
    """
    scenario = get_scenario(name)
    if scenario.supports_runner:
        return scenario.fn(runner=runner)
    return scenario.fn()


def compute_digest(name: str,
                   runner: Optional[SweepRunner] = None) -> str:
    """Run one scenario and return its content digest."""
    return content_digest(compute_document(name, runner=runner))
