"""Mitigation evaluation harness (regenerates Table 1).

Table 1's rows are the three paper defenders of the matrix registry
(:data:`TABLE1_DEFENDERS`).  For each (channel, defender) pair the
harness builds the matrix cell's scenario
(:func:`~repro.mitigations.matrix.cells.cell_spec`), calibrates the
channel with *no* minimum separation requirement (so even a
barely-alive channel gets its best shot), transfers a test payload,
and classifies the outcome:

* ``MITIGATED`` — the level clusters collapse (or BER >= 0.25): the
  channel cannot carry data.
* ``PARTIAL`` — decodable in a noise-free simulation but with level
  separation below the reliable-decoding threshold; any real-world
  jitter breaks it.  This is the paper's 'Partially' for the fast
  per-core-VR defence: transitions still happen, but in <0.5 us.
* ``OPEN`` — the channel still works.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

from repro.errors import CalibrationError, ConfigError
from repro.isa.instructions import IClass
from repro.mitigations.matrix.cells import cell_spec
from repro.mitigations.matrix.defenders import get_defender
from repro.scenarios.build import build_system
from repro.scenarios.run import make_channel
from repro.scenarios.spec import CHANNEL_KINDS

#: Table 1's rows: the paper's Section-7 defences, by defender name.
TABLE1_DEFENDERS: Tuple[str, ...] = (
    "per_core_ldo", "improved_throttling", "secure_mode")


@dataclass(frozen=True)
class MitigationOutcome:
    """Result of testing one channel under one defender."""

    channel: str  # the channel class name, e.g. "IccThreadCovert"
    defender: str
    verdict: str  # MITIGATED / PARTIAL / OPEN
    ber: float
    min_separation_tsc: float

    @property
    def blocked(self) -> bool:
        """True when the channel is unusable under the defender."""
        return self.verdict == "MITIGATED"


@dataclass
class MitigationReport:
    """Table-1-shaped collection of outcomes."""

    outcomes: List[MitigationOutcome]
    secure_mode_power_overhead: float

    def verdict(self, channel: str, defender: str) -> str:
        """Verdict string for a (channel, defender) cell."""
        for outcome in self.outcomes:
            if outcome.channel == channel and outcome.defender == defender:
                return outcome.verdict
        raise ConfigError(f"no outcome recorded for {channel} / {defender}")


_TEST_PAYLOAD = b"\x1b\x2d\x4e\x87"


def evaluate_mitigation(kind: str, defender: str) -> MitigationOutcome:
    """Test the ``kind`` channel against one registry defender."""
    spec = cell_spec(kind, get_defender(defender))
    gap_required = spec.channel_config().min_level_gap_tsc
    spec = replace(spec, protocol=tuple(
        {**dict(spec.protocol), "min_level_gap_tsc": 0.0}.items()))
    system = build_system(spec)
    channel = make_channel(system, spec.tenants[0], spec)
    name = type(channel).__name__
    try:
        calibrator = channel.calibrate()
    except CalibrationError:
        return MitigationOutcome(name, defender, "MITIGATED",
                                 ber=0.5, min_separation_tsc=0.0)
    min_sep = min((gap for _, _, gap in calibrator.separations()), default=0.0)
    report = channel.transfer(_TEST_PAYLOAD)
    if report.ber >= 0.25:
        verdict = "MITIGATED"
    elif min_sep >= gap_required and report.ber < 0.05:
        verdict = "OPEN"
    else:
        verdict = "PARTIAL"
    return MitigationOutcome(name, defender, verdict,
                             ber=report.ber, min_separation_tsc=min_sep)


def evaluate_all() -> MitigationReport:
    """Build the full Table-1 matrix on the channels' Cannon Lake baselines."""
    outcomes = [evaluate_mitigation(kind, defender)
                for kind in CHANNEL_KINDS for defender in TABLE1_DEFENDERS]
    reference = build_system(cell_spec("thread", get_defender("secure_mode")))
    return MitigationReport(
        outcomes=outcomes,
        secure_mode_power_overhead=reference.pmu.secure_mode_power_overhead(
            IClass.SCALAR_64),
    )
