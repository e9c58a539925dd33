"""First-order RC thermal model of the package.

Junction temperature follows ``dT/dt = (P * R_th - (T - T_ambient)) / tau``
with ``tau = R_th * C_th`` in the range of seconds — three to six orders
of magnitude slower than the current-management throttling the paper
studies.  The model exists to *demonstrate the negative*: during the
microsecond-scale experiments the junction temperature barely moves and
never approaches ``Tj_max``, confirming Key Conclusion 2 (the frequency
drops after PHIs are current-limit protection, not thermal management).

Nothing in the simulation loop steps the model: only Fig. 7 reads the
temperature, so :attr:`repro.soc.system.System.temp_trace` replays a
fresh model through the recorded power breakpoints when it is read.
Ambient drift is declared the same way: an :class:`AmbientRamp` is
expanded into its steps on read and schedules no engine event.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

from repro.errors import ConfigError, bounded, check_fields
from repro.units import ns_to_s


@dataclass(frozen=True)
class ThermalSpec:
    """Thermal parameters of a package.

    Parameters
    ----------
    r_th_c_per_w:
        Junction-to-ambient thermal resistance (degC per watt).
    tau_s:
        Thermal time constant in seconds (R_th * C_th).
    t_ambient_c:
        Ambient / heatsink reference temperature.
    tj_max_c:
        Maximum junction temperature before thermal throttling.
    """

    r_th_c_per_w: float = bounded(0.9, gt=0)
    tau_s: float = bounded(4.0, gt=0)
    t_ambient_c: float = 45.0
    tj_max_c: float = 100.0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.tj_max_c <= self.t_ambient_c:
            raise ConfigError("Tj_max must exceed ambient")


@dataclass
class ThermalModel:
    """Lazily-integrated junction temperature.

    Feed :meth:`advance` the piecewise-constant package power at each of
    its breakpoints, in time order, and :meth:`set_ambient_offset` each
    ambient step; the model integrates the exact exponential response
    over every elapsed span.
    """

    spec: ThermalSpec
    temperature_c: float = field(default=0.0)
    #: Drift of the ambient/heatsink reference away from the spec value
    #: (degC); raised by the ``thermal-drift`` fault model to simulate a
    #: warming enclosure.  Steady-state temperature shifts with it.
    ambient_offset_c: float = field(default=0.0)
    _last_update_ns: float = field(default=0.0)
    _power_w: float = field(default=0.0)

    def __post_init__(self) -> None:
        # Unset sentinel: an exact-zero start temperature means "begin at
        # ambient".  Epsilon-compared — bare float equality on physical
        # quantities is banned by the verify lint (rule float-eq).
        if abs(self.temperature_c) < 1e-12:
            self.temperature_c = float(self.spec.t_ambient_c)

    def advance(self, now_ns: float, power_w: float) -> float:
        """Integrate up to ``now_ns``; then apply ``power_w`` onward.

        Returns the junction temperature at ``now_ns``.  A zero-length
        step leaves the temperature exactly as it was.
        """
        if now_ns < self._last_update_ns:
            raise ConfigError(
                f"thermal model cannot run backwards: {now_ns} < {self._last_update_ns}"
            )
        if power_w < 0:
            raise ConfigError(f"power must be >= 0, got {power_w}")
        if now_ns > self._last_update_ns:
            dt_s = ns_to_s(now_ns - self._last_update_ns)
            steady = (self.spec.t_ambient_c + self.ambient_offset_c
                      + self._power_w * self.spec.r_th_c_per_w)
            decay = math.exp(-dt_s / self.spec.tau_s)
            self.temperature_c = steady + (self.temperature_c - steady) * decay
            self._last_update_ns = now_ns
        self._power_w = power_w
        return self.temperature_c

    def read(self, now_ns: float) -> float:
        """Junction temperature at ``now_ns`` without changing the power."""
        return self.advance(now_ns, self._power_w)

    def set_ambient_offset(self, now_ns: float, offset_c: float) -> None:
        """Shift the ambient reference by ``offset_c`` from ``now_ns`` on.

        Integrates up to ``now_ns`` under the old ambient first, so the
        junction relaxes toward the new steady state with the normal
        ``tau`` rather than jumping.
        """
        self.advance(now_ns, self._power_w)
        self.ambient_offset_c = float(offset_c)

    def is_throttling(self, now_ns: float) -> bool:
        """True when the junction is at or above ``Tj_max``."""
        return self.read(now_ns) >= self.spec.tj_max_c

    def headroom_c(self, now_ns: float) -> float:
        """Degrees of margin below ``Tj_max``."""
        return self.spec.tj_max_c - self.read(now_ns)


@dataclass(frozen=True)
class AmbientRamp:
    """A declared drift of the ambient reference.

    From ``start_ns``, every ``step_ns`` the ambient offset rises by
    ``step_c`` until it reaches ``ceiling_c``.  The steps are the float
    recurrences of a process that sleeps ``step_ns``, then sets
    ``offset = min(ceiling_c, offset + step_c)``, so expanding the ramp
    gives what such a process would have recorded, bit for bit.
    """

    start_ns: float
    #: A step that does not advance time would expand forever.
    step_ns: float = bounded(gt=0)
    step_c: float
    ceiling_c: float

    def __post_init__(self) -> None:
        check_fields(self)

    def steps(self) -> Iterator[Tuple[float, float]]:
        """Every ``(time_ns, offset_c)`` step of the ramp, in order."""
        t = self.start_ns
        offset = 0.0
        while offset < self.ceiling_c:
            t += self.step_ns
            offset = min(self.ceiling_c, offset + self.step_c)
            yield t, offset


def expand_ramps(ramps: Sequence[AmbientRamp],
                until_ns: float) -> List[Tuple[float, float]]:
    """Every step of ``ramps`` due at or before ``until_ns``, merged.

    Steps are ordered as the event engine would run the ramps' stepping
    processes: by time, and at equal times in the order each step was
    scheduled, which is when the ramp's previous step (or its start)
    ran.  A ramp starts before any step due at its start instant runs;
    ramps that start together start in the order given.
    """
    out: List[Tuple[float, float]] = []
    seq = itertools.count()
    heap: list = []
    starts = sorted(ramps, key=lambda ramp: ramp.start_ns)
    started = 0
    while True:
        while started < len(starts) and (
                not heap or starts[started].start_ns <= heap[0][0]):
            ramp = starts[started]
            heapq.heappush(heap, (ramp.start_ns, next(seq), None, ramp.steps()))
            started += 1
        if not heap:
            return out
        t, _, offset, steps = heapq.heappop(heap)
        if t > until_ns:
            return out
        if offset is not None:
            out.append((t, offset))
        step = next(steps, None)
        if step is not None:
            heapq.heappush(heap, (step[0], next(seq), step[1], steps))
