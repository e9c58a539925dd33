"""Adaptive multi-level voltage guardband (Section 2, Equation 1).

The processor defines multiple power-virus levels keyed by the
architectural state — how many cores are active and the computational
intensity of the instructions each is running — and positions the shared
rail high enough that the worst burst of the *current* level keeps the
load above ``Vcc_min``.

Equation 1 of the paper gives the guardband step between two levels::

    dV = (Icc2 - Icc1) * R_LL = (Cdyn2 - Cdyn1) * Vcc * F * R_LL

:class:`GuardbandModel` evaluates that equation for a set of per-core
instruction classes.  The per-core contributions are additive, matching
Figure 6(a): each extra core that starts AVX2 raises the rail by its own
~8-9 mV step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ConfigError
from repro.isa.instructions import IClass
from repro.pdn.loadline import LoadLine


@dataclass(frozen=True)
class GuardbandModel:
    """Evaluates voltage guardbands over a :class:`LoadLine`.

    Parameters
    ----------
    loadline:
        The rail's load-line impedance model.
    reference:
        The class whose guardband is folded into the baseline voltage;
        scalar 64-bit code by definition needs no extra guardband.
    """

    loadline: LoadLine
    reference: IClass = IClass.SCALAR_64

    def delta_v(self, iclass: IClass, vcc: float, freq_ghz: float) -> float:
        """Guardband step one core running ``iclass`` adds (Equation 1)."""
        if vcc <= 0:
            raise ConfigError(f"vcc must be positive, got {vcc}")
        if freq_ghz <= 0:
            raise ConfigError(f"frequency must be positive, got {freq_ghz}")
        cdyn_delta = iclass.cdyn_nf - self.reference.cdyn_nf
        if cdyn_delta <= 0.0:
            return 0.0
        return self.loadline.droop(cdyn_delta * vcc * freq_ghz)

    def target_vcc(self, baseline_vcc: float,
                   active_classes: Iterable[IClass],
                   freq_ghz: float) -> float:
        """Rail target for a set of concurrently active per-core classes.

        ``active_classes`` holds, for each active core, the most intense
        class that core is (recently) executing.  Contributions add
        because each additional core raises the worst-case current the
        rail must absorb (Figure 6a).
        """
        total = baseline_vcc
        for iclass in active_classes:
            total += self.delta_v(iclass, baseline_vcc, freq_ghz)
        return total

    def worst_case_vcc(self, baseline_vcc: float, n_cores: int,
                       freq_ghz: float,
                       virus_class: IClass = IClass.HEAVY_512) -> float:
        """Rail position for the absolute worst case (secure-mode level).

        The paper's secure-mode mitigation pins the rail at the guardband
        of the worst power virus on every core so no transition — and no
        throttling — ever happens (Section 7).
        """
        if n_cores < 1:
            raise ConfigError(f"n_cores must be >= 1, got {n_cores}")
        return self.target_vcc(baseline_vcc, [virus_class] * n_cores, freq_ghz)

    def level_ladder(self, baseline_vcc: float, freq_ghz: float,
                     classes: Sequence[IClass] = tuple(IClass)) -> "dict[IClass, float]":
        """Guardband of each class at the given operating point.

        Useful for reports and for checking the multi-level structure of
        Figure 10: the ladder is strictly increasing in computational
        intensity (among classes with distinct Cdyn).
        """
        return {
            iclass: self.delta_v(iclass, baseline_vcc, freq_ghz)
            for iclass in classes
        }
