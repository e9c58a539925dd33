"""Voltage/frequency curves and P-states.

The PMU converts between operating frequency and the baseline supply
voltage using a voltage/frequency (V/F) curve fused into the part.  The
baseline covers scalar code at the given frequency; guardbands for wider
or heavier instructions are added on top by
:class:`~repro.pdn.guardband.GuardbandModel`.

All cores in the client parts the paper studies share one clock domain
(Section 2, 'Clocking'), so a P-state applies to the whole package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import ConfigError, bounded, check_fields


@dataclass(frozen=True)
class VFCurve:
    """Piecewise-linear V/F curve through calibration ``points``.

    ``points`` is a sequence of (freq_ghz, vcc) pairs sorted by frequency.
    Voltage for frequencies outside the span is linearly extrapolated
    from the nearest segment, clamped below at ``vcc_floor``.
    """

    points: Tuple[Tuple[float, float], ...]
    vcc_floor: float = 0.55

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ConfigError("a V/F curve needs at least two points")
        freqs = [f for f, _ in self.points]
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ConfigError(f"V/F curve frequencies must increase: {freqs}")
        if not all(math.isfinite(x) for point in self.points for x in point):
            raise ConfigError(f"V/F curve points must be finite: {self.points}")
        if any(v <= 0 for _, v in self.points):
            raise ConfigError("V/F curve voltages must be positive")

    def vcc_for(self, freq_ghz: float) -> float:
        """Baseline voltage for scalar code at ``freq_ghz``."""
        if freq_ghz <= 0:
            raise ConfigError(f"frequency must be positive, got {freq_ghz}")
        pts = self.points
        if freq_ghz <= pts[0][0]:
            lo, hi = pts[0], pts[1]
        elif freq_ghz >= pts[-1][0]:
            lo, hi = pts[-2], pts[-1]
        else:
            lo, hi = pts[0], pts[1]
            for a, b in zip(pts, pts[1:]):
                if a[0] <= freq_ghz <= b[0]:
                    lo, hi = a, b
                    break
        slope = (hi[1] - lo[1]) / (hi[0] - lo[0])
        vcc = lo[1] + slope * (freq_ghz - lo[0])
        return max(vcc, self.vcc_floor)


@dataclass(frozen=True)
class PState:
    """One package performance state."""

    freq_ghz: float = bounded(gt=0)
    vcc: float = bounded(gt=0)

    def __post_init__(self) -> None:
        check_fields(self)


def pstate_ladder(curve: VFCurve, min_ghz: float, max_ghz: float,
                  step_ghz: float = 0.1) -> List[PState]:
    """Enumerate P-states from ``min_ghz`` to ``max_ghz`` on the curve.

    Intel parts expose ~100 MHz bin granularity; the ladder is sorted by
    descending frequency so limit searches can walk from fastest down.
    """
    if min_ghz <= 0 or max_ghz < min_ghz:
        raise ConfigError(f"bad P-state range [{min_ghz}, {max_ghz}]")
    if step_ghz <= 0:
        raise ConfigError(f"P-state step must be positive, got {step_ghz}")
    states: List[PState] = []
    n_steps = int(round((max_ghz - min_ghz) / step_ghz))
    for i in range(n_steps, -1, -1):
        freq = round(min_ghz + i * step_ghz, 6)
        states.append(PState(freq, curve.vcc_for(freq)))
    return states


def highest_not_above(states: Sequence[PState], ceiling_ghz: float) -> PState:
    """The fastest P-state at or below ``ceiling_ghz``.

    Falls back to the slowest state when even it exceeds the ceiling (the
    package cannot clock below its minimum bin).
    """
    if not states:
        raise ConfigError("empty P-state ladder")
    for state in states:  # sorted fastest-first
        if state.freq_ghz <= ceiling_ghz + 1e-9:
            return state
    return states[-1]
