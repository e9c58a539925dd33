"""Turbo frequency licenses (LVL0/1/2_TURBO_LICENSE).

Intel caps the attainable turbo frequency by a *license* derived from the
instruction mix and the number of active cores (Section 5.3).  Scalar and
128-bit code runs under LVL0 (full turbo); heavy 256-bit code needs LVL1;
heavy 512-bit code needs LVL2, each with progressively lower frequency
ceilings.  The paper is careful to distinguish these licenses from the
five *throttling levels* of Figure 10 — licenses only matter at turbo
frequencies, while the voltage-transition throttling that IChannels
exploits happens at any frequency.

TurboCC (the cross-core baseline of Section 6.2) communicates through the
slow license-induced frequency changes this module models.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.errors import ConfigError
from repro.isa.instructions import IClass


@enum.unique
class TurboLicense(enum.IntEnum):
    """Frequency license levels, higher = lower frequency ceiling."""

    LVL0 = 0
    LVL1 = 1
    LVL2 = 2


def license_for_class(iclass: IClass) -> TurboLicense:
    """License a core needs to execute ``iclass`` at turbo.

    Per Intel's optimisation manual: scalar/128-bit and light 256-bit code
    stays at LVL0; heavy 256-bit and light 512-bit code needs LVL1; heavy
    512-bit code needs LVL2.
    """
    return _LICENSE_OF[iclass]


#: Precomputed class-to-license map; :func:`license_for_class` is on the
#: frequency-reconciliation hot path.
_LICENSE_OF: Dict[IClass, TurboLicense] = {
    iclass: (
        TurboLicense.LVL2 if iclass == IClass.HEAVY_512
        else TurboLicense.LVL1 if iclass in (IClass.HEAVY_256, IClass.LIGHT_512)
        else TurboLicense.LVL0
    )
    for iclass in IClass
}


@dataclass(frozen=True)
class TurboLicenseTable:
    """Max turbo frequency per (license, active core count).

    ``ceilings[license]`` is a tuple indexed by ``active_cores - 1``; a
    request with more active cores than the tuple covers uses the last
    entry (the all-core turbo).
    """

    ceilings: Dict[TurboLicense, Tuple[float, ...]]

    def __post_init__(self) -> None:
        for license_level in TurboLicense:
            if license_level not in self.ceilings:
                raise ConfigError(f"missing turbo ceiling row for {license_level}")
            row = self.ceilings[license_level]
            # The negated comparison also rejects NaN, which would make
            # the package ceiling NaN and min() drop it silently.
            if not row or not all(0 < f < math.inf for f in row):
                raise ConfigError(
                    f"turbo ceiling row for {license_level.name} must hold "
                    f"finite positive frequencies, got {row}")

    def max_freq(self, license_level: TurboLicense, active_cores: int) -> float:
        """Frequency ceiling for the given license and core count."""
        if active_cores < 1:
            raise ConfigError(f"active_cores must be >= 1, got {active_cores}")
        row = self.ceilings[license_level]
        return row[min(active_cores, len(row)) - 1]

    def package_ceiling(self, per_core_classes: Sequence[IClass]) -> float:
        """Ceiling when each active core runs the given class.

        The package license is the most restrictive (highest) per-core
        license, evaluated at the total active-core count.
        """
        if not per_core_classes:
            raise ConfigError("at least one active core is required")
        worst = max(_LICENSE_OF[c] for c in per_core_classes)
        return self.max_freq(worst, len(per_core_classes))
