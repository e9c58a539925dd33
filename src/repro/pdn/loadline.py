"""Load-line (adaptive voltage positioning) model.

The load-line describes the voltage/current relationship at the package
input under a given system impedance ``R_LL`` (Section 2, Figure 2)::

    Vcc_load = Vcc - R_LL * Icc

where ``Vcc``/``Icc`` are at the VR output.  Because load voltage sags as
current rises, the PMU must position ``Vcc`` high enough that the worst
current burst the current architectural state can draw still leaves
``Vcc_load`` above ``Vcc_min``.  That guardband is what PHIs modulate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, bounded, check_fields


@dataclass(frozen=True)
class LoadLine:
    """A resistive load-line of ``r_ll_ohm`` ohms.

    Recent client parts use 1.6-2.4 mOhm (paper Section 2); the presets in
    :mod:`repro.soc.config` use 1.8 mOhm, which reproduces the ~8-9 mV
    per-core AVX2 guardband steps of Figure 6.
    """

    r_ll_ohm: float = bounded(gt=0)

    def __post_init__(self) -> None:
        check_fields(self)

    def vcc_load(self, vcc: float, icc: float) -> float:
        """Voltage at the load for VR output ``vcc`` and current ``icc``."""
        if icc < 0:
            raise ConfigError(f"current must be >= 0, got {icc}")
        return vcc - self.r_ll_ohm * icc

    def droop(self, icc: float) -> float:
        """IR droop across the load-line at current ``icc``."""
        if icc < 0:
            raise ConfigError(f"current must be >= 0, got {icc}")
        return self.r_ll_ohm * icc

    def required_vcc(self, vcc_min: float, icc_worst: float) -> float:
        """VR voltage needed so the load stays above ``vcc_min``.

        ``icc_worst`` is the worst-case current of the *current* power
        virus level — the discretised maximum the architectural state can
        draw (Section 2, 'Adaptive Voltage Guardband').
        """
        return vcc_min + self.droop(icc_worst)

    def guardband_delta(self, icc_low: float, icc_high: float) -> float:
        """Voltage guardband step between two power-virus levels.

        Equation 1 of the paper: ``dV = (Icc2 - Icc1) * R_LL``.
        """
        return self.r_ll_ohm * (icc_high - icc_low)

    def excess_voltage(self, vcc: float, icc_actual: float, icc_worst: float) -> float:
        """How far the load sits above necessity at a *typical* current.

        When the actual current is below the virus level, the load voltage
        is higher than necessary by ``R_LL * (Icc_worst - Icc_actual)``;
        the wasted power grows quadratically with this excess (Section 2).
        """
        del vcc  # the excess is independent of the absolute rail position
        if icc_actual > icc_worst:
            raise ConfigError(
                f"actual current {icc_actual} A exceeds virus level {icc_worst} A"
            )
        return self.droop(icc_worst) - self.droop(icc_actual)
