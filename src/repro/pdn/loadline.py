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

    def droop(self, icc: float) -> float:
        """IR droop across the load-line at current ``icc``."""
        if icc < 0:
            raise ConfigError(f"current must be >= 0, got {icc}")
        return self.r_ll_ohm * icc
