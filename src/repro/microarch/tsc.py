"""Invariant timestamp counter (``rdtsc``) model.

Modern Intel parts expose an *invariant* TSC that ticks at a fixed rate
(the base frequency) regardless of the core's current P-state.  Both the
covert-channel receiver's throttling-period measurements and the wall
clock synchronisation of Section 4.3.3 use it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, bounded, check_fields


@dataclass(frozen=True)
class TimestampCounter:
    """TSC ticking at ``tsc_ghz`` independent of core frequency."""

    tsc_ghz: float = bounded(gt=0)

    def __post_init__(self) -> None:
        check_fields(self)

    def read(self, now_ns: float) -> int:
        """``rdtsc`` at simulation time ``now_ns``."""
        if now_ns < 0:
            raise ConfigError(f"time must be >= 0, got {now_ns}")
        return int(now_ns * self.tsc_ghz)


@dataclass(frozen=True)
class DriftingTimestampCounter(TimestampCounter):
    """A TSC whose effective rate drifts away from nominal.

    Real invariant TSCs are crystal-derived and not perfectly stable:
    temperature and aging shift the oscillator by parts per million, and
    virtualised TSCs can be scaled outright.  ``read`` applies a fixed
    fractional offset (``skew``) plus a linearly growing one
    (``drift_per_s``), so intervals measured in ticks stretch over time
    while the *nominal* rate ``tsc_ghz`` — what software believes —
    stays put.
    That gap is exactly what makes calibrated decode thresholds go stale
    (the ``clock-skew`` fault model of :mod:`repro.faults`).
    """

    skew: float = bounded(0.0, gt=-1)
    drift_per_s: float = 0.0

    def rate_at(self, now_ns: float) -> float:
        """Effective tick rate (fraction of nominal) at ``now_ns``."""
        return 1.0 + self.skew + self.drift_per_s * now_ns * 1e-9

    def read(self, now_ns: float) -> int:
        """``rdtsc`` including the accumulated skew and drift."""
        if now_ns < 0:
            raise ConfigError(f"time must be >= 0, got {now_ns}")
        # Integrate the linearly drifting rate: ticks(t) = f0 * t *
        # (1 + skew + drift * t / 2), exact for a linear ramp.
        drift_term = 0.5 * self.drift_per_s * now_ns * 1e-9
        ticks = now_ns * self.tsc_ghz * (1.0 + self.skew + drift_term)
        if ticks < 0:
            raise ConfigError("drift made the TSC run backwards")
        return int(ticks)
