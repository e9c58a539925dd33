"""Maximum Icc/Vcc limit protection (Sections 2, 5.3).

Before committing to a voltage transition, the PMU projects the rail
voltage (baseline + guardbands) and the worst-case supply current at the
requested frequency.  If either exceeds the electrical design limits —
``Vcc_max`` (maximum operational voltage) or ``Icc_max`` (maximum VR
current, exceeding which can damage the part) — the PMU *reduces the
package frequency* to the fastest P-state that fits, which is the
frequency drop Figure 7(b) shows within tens of microseconds of an
AVX2/AVX512 phase starting.  Key Conclusion 2: this, not thermal
management, causes the post-PHI frequency reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigError, bounded, check_fields
from repro.isa.instructions import IClass
from repro.pdn.guardband import GuardbandModel
from repro.pmu.dvfs import PState, VFCurve
from repro.units import dynamic_current


@dataclass(frozen=True)
class LimitVerdict:
    """Outcome of a limit-protection evaluation at one operating point."""

    freq_ghz: float
    vcc_target: float
    icc_projected: float
    vcc_violation: bool
    icc_violation: bool

    @property
    def ok(self) -> bool:
        """True when both electrical limits are respected."""
        return not (self.vcc_violation or self.icc_violation)


@dataclass(frozen=True)
class LimitPolicy:
    """Evaluates electrical limits for candidate operating points."""

    curve: VFCurve
    guardband: GuardbandModel
    vcc_max: float = bounded(gt=0)
    icc_max: float = bounded(gt=0)

    def __post_init__(self) -> None:
        check_fields(self)

    def evaluate(self, freq_ghz: float,
                 per_core_classes: Sequence[IClass]) -> LimitVerdict:
        """Project rail voltage and worst-case current at ``freq_ghz``.

        ``per_core_classes`` lists, for each *active* core, the most
        intense class the rail must currently cover.
        """
        baseline = self.curve.vcc_for(freq_ghz)
        vcc_target = self.guardband.target_vcc(
            baseline, per_core_classes, freq_ghz)
        icc = sum(
            dynamic_current(iclass.cdyn_nf, vcc_target, freq_ghz)
            for iclass in per_core_classes
        )
        return LimitVerdict(
            freq_ghz=freq_ghz,
            vcc_target=vcc_target,
            icc_projected=icc,
            vcc_violation=vcc_target > self.vcc_max + 1e-9,
            icc_violation=icc > self.icc_max + 1e-9,
        )

    def max_allowed(self, requested_ghz: float,
                    per_core_classes: Sequence[IClass],
                    ladder: Sequence[PState]) -> PState:
        """Fastest P-state <= ``requested_ghz`` that respects the limits.

        Walks the descending ladder and returns the first state that both
        fits under the requested frequency and passes :meth:`evaluate`.
        Falls back to the slowest state if nothing passes: the hardware
        cannot clock below its minimum bin, and at the minimum bin real
        parts always fit their limits by construction.
        """
        if not ladder:
            raise ConfigError("empty P-state ladder")
        for state in ladder:
            if state.freq_ghz > requested_ghz + 1e-9:
                continue
            if not per_core_classes:
                return state
            if self.evaluate(state.freq_ghz, per_core_classes).ok:
                return state
        return ladder[-1]
