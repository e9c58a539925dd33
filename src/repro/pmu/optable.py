"""One operating-point table per processor: the PMU's electrical physics.

Real parts keep their power-virus guardbands and turbo-license ceilings
in fixed per-part tables (Sections 4-5).  :class:`OperatingPointTable`
holds the P-state ladder, V/F baseline, per-class guardband step
(Equation 1), rail target, Icc/Vcc verdict and fastest allowed P-state
of one configuration.  Systems of equal configurations share one table
(:meth:`repro.soc.config.ProcessorConfig.operating_points`), filled on
first ask with the very float the cold formula returns.  Class tuples
keep the caller's order: a reordered float sum is a different number.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.isa.instructions import IClass
from repro.pdn.guardband import GuardbandModel
from repro.pdn.loadline import LoadLine
from repro.pmu.dvfs import VFCurve, pstate_ladder
from repro.pmu.limits import LimitPolicy, LimitVerdict
from repro.pmu.turbo import TurboLicenseTable

#: Per-core classes, in the order the caller lists the cores.
Classes = Tuple[IClass, ...]


class OperatingPointTable:
    """Operating points of one processor configuration, filled lazily."""

    def __init__(self, curve: VFCurve, licenses: TurboLicenseTable,
                 r_ll_ohm: float, vcc_max: float, icc_max: float,
                 min_ghz: float, max_ghz: float, step_ghz: float) -> None:
        self.curve = curve
        self.licenses = licenses
        self.guardband = GuardbandModel(LoadLine(r_ll_ohm))
        self.limits = LimitPolicy(curve, self.guardband, vcc_max, icc_max)
        #: P-states, fastest first.
        self.ladder = tuple(pstate_ladder(curve, min_ghz, max_ghz, step_ghz))
        self._vcc: Dict[float, float] = {
            state.freq_ghz: state.vcc for state in self.ladder}
        self._verdicts: Dict[Tuple[float, Classes], LimitVerdict] = {}
        self._allowed: Dict[
            Tuple[float, Classes, Optional[Classes]], float] = {}

    def vcc(self, freq_ghz: float) -> float:
        """V/F baseline (scalar code) at ``freq_ghz``."""
        vcc = self._vcc.get(freq_ghz)
        if vcc is None:
            vcc = self._vcc[freq_ghz] = self.curve.vcc_for(freq_ghz)
        return vcc

    def class_step_v(self, iclass: IClass, freq_ghz: float) -> float:
        """Guardband step one core running ``iclass`` adds (Equation 1)."""
        return self.guardband.delta_v(iclass, self.vcc(freq_ghz), freq_ghz)

    def verdict(self, freq_ghz: float, classes: Classes) -> LimitVerdict:
        """Rail target, projected Icc and limit verdict for ``classes``."""
        key = (freq_ghz, classes)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = self.limits.evaluate(
                freq_ghz, classes)
        return verdict

    def rail_target(self, freq_ghz: float, classes: Classes) -> float:
        """Rail voltage covering the guardbands of ``classes``."""
        return self.verdict(freq_ghz, classes).vcc_target

    def allowed_freq(self, requested_ghz: float, active: Classes,
                     licensed: Optional[Classes] = None) -> float:
        """Fastest legal P-state for the given cores.

        ``active`` lists the classes of the cores that draw current;
        ``licensed`` the classes that set the package turbo-license
        ceiling (default: ``active``).  The answer is at or below both
        ``requested_ghz`` and that ceiling.
        """
        key = (requested_ghz, active, licensed)
        freq = self._allowed.get(key)
        if freq is None:
            ceiling = min(requested_ghz, self.licenses.package_ceiling(
                active if licensed is None else licensed))
            freq = self._allowed[key] = self.limits.max_allowed(
                ceiling, active, self.ladder).freq_ghz
        return freq
