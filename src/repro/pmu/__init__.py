"""Power management unit: DVFS, limits, turbo licenses, thermal, hysteresis.

The central PMU (one per package) owns the voltage regulators and the
clock PLL; it serialises voltage transitions — the root cause of the
paper's Multi-Throttling-Cores side effect — enforces the Icc_max/Vcc_max
design limits by reducing frequency, and relaxes guardbands only after the
650 us hysteresis (reset-time) expires.  Local (per-core) PMUs track the
computational intensity each core recently executed and raise voltage
requests on its behalf.
"""

from repro.pmu.dvfs import PState, VFCurve
from repro.pmu.turbo import TurboLicense, license_for_class, TurboLicenseTable
from repro.pmu.limits import LimitPolicy, LimitVerdict
from repro.pmu.thermal import ThermalModel, ThermalSpec
from repro.pmu.central import CentralPMU, PMUConfig
from repro.pmu.local import LocalPMU

__all__ = [
    "PState",
    "VFCurve",
    "TurboLicense",
    "license_for_class",
    "TurboLicenseTable",
    "LimitPolicy",
    "LimitVerdict",
    "ThermalModel",
    "ThermalSpec",
    "CentralPMU",
    "PMUConfig",
    "LocalPMU",
]
