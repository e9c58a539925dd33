"""Per-core local PMU: intensity tracking, hysteresis, power gates.

Each core's local PMU remembers the most computationally intense class
the core executed within the last *reset-time* window (~650 us, Section
4.1.2).  While a class is within the window the rail keeps its guardband;
once the window expires with no further PHIs, the local PMU asks the
central PMU to drop the guardband back down.  This hysteresis is why the
covert channels must wait ~650 us between transactions.

The local PMU also owns the core's AVX power gates (Section 5.4): the
first access to a gated-off AVX unit pays the staggered ~8-15 ns wake
latency — a negligible (~0.1 %) share of the throttling period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ConfigError
from repro.isa.instructions import IClass
from repro.pdn.powergate import PowerGate

#: The classes above the scalar floor, most intense first.
_DESCENDING = tuple(sorted(IClass, reverse=True))[:-1]


@dataclass
class LocalPMU:
    """Intensity bookkeeping for one core."""

    core_id: int
    reset_time_ns: float
    avx256_gate: PowerGate
    avx512_gate: PowerGate
    #: Last execute time of each class, indexed by class; -inf if never.
    _last_exec_ns: List[float] = field(
        default_factory=lambda: [-math.inf] * len(IClass))

    def __post_init__(self) -> None:
        if self.reset_time_ns <= 0:
            raise ConfigError(f"reset time must be positive, got {self.reset_time_ns}")

    # -- power gates ---------------------------------------------------------

    def gate_wake_latency(self, iclass: IClass, now_ns: float) -> float:
        """Wake latency paid to start executing ``iclass`` at ``now_ns``."""
        latency = 0.0
        if iclass.uses_avx256_unit:
            latency += self.avx256_gate.access(now_ns)
        if iclass.uses_avx512_unit:
            latency += self.avx512_gate.access(now_ns + latency)
        return latency

    def touch_gates(self, iclass: IClass, now_ns: float) -> None:
        """Keep the relevant gates' idle timers fresh during execution."""
        if iclass.uses_avx256_unit:
            self.avx256_gate.touch(now_ns)
        if iclass.uses_avx512_unit:
            self.avx512_gate.touch(now_ns)

    # -- hysteresis ------------------------------------------------------------

    def note_execute(self, iclass: IClass, now_ns: float) -> None:
        """Record that the core is executing ``iclass`` at ``now_ns``."""
        last = self._last_exec_ns
        if now_ns > last[iclass]:
            last[iclass] = now_ns

    def requirement(self, now_ns: float) -> IClass:
        """Most intense class still inside the reset-time window."""
        cutoff = now_ns - self.reset_time_ns
        last = self._last_exec_ns
        for iclass in _DESCENDING:
            if last[iclass] > cutoff:
                return iclass
        return IClass.SCALAR_64

    def next_expiry_ns(self, now_ns: float) -> Optional[float]:
        """When the current requirement leaves the window, if ever.

        Returns the expiry of the current requirement class's last
        execute, or None when the requirement is already the scalar
        floor.  A lower class expiring earlier does not lower the
        requirement, so it is never the answer.
        """
        current = self.requirement(now_ns)
        if current == IClass.SCALAR_64:
            return None
        return self._last_exec_ns[current] + self.reset_time_ns
