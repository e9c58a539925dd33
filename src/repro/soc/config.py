"""Processor presets for the three parts the paper characterises.

Electrical parameters are calibrated against the paper's reported
measurements:

* load-line 1.8 mOhm (1.7 on Haswell's FIVR) puts the per-core AVX2
  guardband step at ~8-9 mV at 2 GHz / 0.79 V (Figure 6a);
* MBVR slew of 1.25 mV/us (the SVID slow-slew bin) plus ~1.5 us command
  latency yields 12-15 us AVX2 throttling periods at 3 GHz on Coffee
  Lake / Cannon Lake, while Haswell's faster FIVR lands near 9 us
  (Figure 8a);
* Coffee Lake: Vcc_max = 1.27 V, Icc_max = 100 A — AVX2 at 4.9 GHz
  violates the voltage limit but 4.8 GHz does not (Figure 7a);
* Cannon Lake: Vcc_max = 1.15 V, Icc_max = 29 A — two cores of AVX2 at
  3.1 GHz violate the current limit but 2.2 GHz does not (Figure 7a);
* VID quantisation of 2.5 mV keeps the four sender levels on distinct
  rail targets (the paper's Figure 13 shows >2 K-cycle separations).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Dict, Tuple

from repro.errors import ConfigError, bounded, check_fields
from repro.pdn.regulator import VRKind, VRSpec
from repro.pmu.dvfs import VFCurve
from repro.pmu.optable import OperatingPointTable
from repro.pmu.thermal import ThermalSpec
from repro.pmu.turbo import TurboLicense, TurboLicenseTable
from repro.units import mohm_to_ohm

#: One turbo-ceiling row per license level, sorted: a hashable key.
CeilingRows = Tuple[Tuple[int, Tuple[float, ...]], ...]


@dataclass(frozen=True)
class ProcessorConfig:
    """Static description of one simulated processor."""

    name: str
    codename: str
    n_cores: int = bounded(ge=1)
    smt_per_core: int = bounded(ge=1, le=2)
    min_freq_ghz: float
    base_freq_ghz: float
    max_turbo_ghz: float
    vf_points: Tuple[Tuple[float, float], ...]
    r_ll_mohm: float
    vr_kind: VRKind
    vr_slew_mv_per_us: float
    vr_command_latency_ns: float
    vid_step_mv: float
    vcc_max: float
    icc_max: float
    avx_pg_present: bool
    pg_wake_ns: float
    max_vector_bits: int
    reset_time_us: float
    pll_relock_ns: float
    turbo_ceilings: Dict[TurboLicense, Tuple[float, ...]]
    thermal: ThermalSpec
    pstate_step_ghz: float = 0.1
    #: Margin below the V/F-curve baseline that defines Vcc_min at the
    #: current frequency; di/dt dips beyond it are voltage emergencies.
    droop_margin_mv: float = bounded(25.0, ge=0)
    #: Parts whose PDN natively gives every core its own regulator
    #: (AMD Zen's LDOs, POWER8's microregulators).  The paper confirms
    #: that naively porting IChannels to such parts fails (Section 7).
    per_core_rails: bool = False

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.min_freq_ghz <= self.base_freq_ghz <= self.max_turbo_ghz:
            raise ConfigError(
                f"frequency ladder disordered: {self.min_freq_ghz} <= "
                f"{self.base_freq_ghz} <= {self.max_turbo_ghz} violated"
            )
        if self.max_vector_bits not in (256, 512):
            raise ConfigError(
                f"max_vector_bits must be 256 or 512, got {self.max_vector_bits}"
            )
        self.license_table()  # rejects a bad ceiling row, naming its level

    @property
    def n_threads(self) -> int:
        """Total hardware threads in the package."""
        return self.n_cores * self.smt_per_core

    @property
    def supports_smt(self) -> bool:
        """Whether the part has two hardware threads per core."""
        return self.smt_per_core > 1

    def vf_curve(self) -> VFCurve:
        """The part's V/F curve, interned per point set (the
        operating-point tables of such parts are built on it)."""
        return _interned_curve(self.vf_points)

    def vr_spec(self) -> VRSpec:
        """The part's voltage-regulator electrical spec."""
        return VRSpec(
            kind=self.vr_kind,
            slew_mv_per_us=self.vr_slew_mv_per_us,
            command_latency_ns=self.vr_command_latency_ns,
            vid_step_mv=self.vid_step_mv,
            vcc_max=self.vcc_max,
            icc_max=self.icc_max,
        )

    def license_table(self) -> TurboLicenseTable:
        """The part's turbo-license frequency ceilings, interned per
        ceiling set like :meth:`vf_curve`."""
        return _interned_license_table(self._ceiling_rows())

    def operating_points(self) -> OperatingPointTable:
        """The part's operating-point table.

        Interned on the fields it reads, so every system built from equal
        configurations shares one table and the entries it has filled.
        """
        return _interned_operating_points(
            self.vf_points, self._ceiling_rows(), mohm_to_ohm(self.r_ll_mohm),
            self.vcc_max, self.icc_max, self.min_freq_ghz,
            self.max_turbo_ghz, self.pstate_step_ghz)

    def _ceiling_rows(self) -> CeilingRows:
        """The turbo ceilings as a sorted, hashable tuple."""
        return tuple(sorted(
            (level.value, row) for level, row in self.turbo_ceilings.items()
        ))

    def with_overrides(self, **kwargs) -> "ProcessorConfig":
        """A copy with selected fields replaced (for ablations)."""
        return replace(self, **kwargs)


@functools.lru_cache(maxsize=None)
def _interned_curve(vf_points: Tuple[Tuple[float, float], ...]) -> VFCurve:
    """One shared V/F curve per distinct point set."""
    return VFCurve(vf_points)


@functools.lru_cache(maxsize=None)
def _interned_license_table(key: CeilingRows) -> TurboLicenseTable:
    """One shared turbo-license table per distinct ceiling set."""
    return TurboLicenseTable(
        {TurboLicense(value): row for value, row in key}
    )


@functools.lru_cache(maxsize=None)
def _interned_operating_points(
        vf_points: Tuple[Tuple[float, float], ...], ceiling_rows: CeilingRows,
        *physics: float) -> OperatingPointTable:
    """One shared operating-point table per distinct physics."""
    return OperatingPointTable(_interned_curve(vf_points),
                               _interned_license_table(ceiling_rows), *physics)


def haswell_i7_4770k() -> ProcessorConfig:
    """Intel Haswell Core i7-4770K: 4 cores, SMT, FIVR power delivery."""
    return ProcessorConfig(
        name="Core i7-4770K",
        codename="Haswell",
        n_cores=4,
        smt_per_core=2,
        min_freq_ghz=0.8,
        base_freq_ghz=3.5,
        max_turbo_ghz=3.9,
        vf_points=((0.8, 0.62), (2.0, 0.80), (3.5, 1.03), (3.9, 1.12)),
        r_ll_mohm=1.7,
        vr_kind=VRKind.FIVR,
        vr_slew_mv_per_us=1.8,
        vr_command_latency_ns=300.0,
        vid_step_mv=2.5,
        vcc_max=1.30,
        icc_max=112.0,
        avx_pg_present=False,  # AVX power gating arrived with Skylake
        pg_wake_ns=0.0,
        max_vector_bits=256,
        reset_time_us=650.0,
        pll_relock_ns=1_500.0,
        turbo_ceilings={
            TurboLicense.LVL0: (3.9, 3.9, 3.8, 3.7),
            TurboLicense.LVL1: (3.7, 3.6, 3.5, 3.5),
            TurboLicense.LVL2: (3.7, 3.6, 3.5, 3.5),
        },
        thermal=ThermalSpec(r_th_c_per_w=0.6, tau_s=4.0, t_ambient_c=45.0),
    )


def coffee_lake_i7_9700k() -> ProcessorConfig:
    """Intel Coffee Lake Core i7-9700K: 8 cores, no SMT, MBVR."""
    return ProcessorConfig(
        name="Core i7-9700K",
        codename="Coffee Lake",
        n_cores=8,
        smt_per_core=1,
        min_freq_ghz=0.8,
        base_freq_ghz=3.6,
        max_turbo_ghz=4.9,
        # Through the paper's observed 788 mV at 2 GHz; 4.8 GHz + AVX2
        # guardband fits under 1.27 V, 4.9 GHz + AVX2 does not (Fig. 7a).
        vf_points=((0.8, 0.598), (2.0, 0.788), (4.8, 1.232), (4.9, 1.248)),
        r_ll_mohm=1.8,
        vr_kind=VRKind.MBVR,
        vr_slew_mv_per_us=1.25,
        vr_command_latency_ns=1_500.0,
        vid_step_mv=2.5,
        vcc_max=1.27,
        icc_max=100.0,
        avx_pg_present=True,
        pg_wake_ns=12.0,
        max_vector_bits=256,
        reset_time_us=650.0,
        pll_relock_ns=1_500.0,
        turbo_ceilings={
            TurboLicense.LVL0: (4.9, 4.8, 4.7, 4.7, 4.6, 4.6, 4.6, 4.6),
            TurboLicense.LVL1: (4.6, 4.5, 4.4, 4.4, 4.3, 4.3, 4.3, 4.3),
            TurboLicense.LVL2: (4.3, 4.2, 4.1, 4.1, 4.0, 4.0, 4.0, 4.0),
        },
        thermal=ThermalSpec(r_th_c_per_w=0.45, tau_s=5.0, t_ambient_c=45.0),
    )


def cannon_lake_i3_8121u() -> ProcessorConfig:
    """Intel Cannon Lake Core i3-8121U: 2 cores, SMT, MBVR, AVX-512."""
    return ProcessorConfig(
        name="Core i3-8121U",
        codename="Cannon Lake",
        n_cores=2,
        smt_per_core=2,
        min_freq_ghz=0.8,
        base_freq_ghz=2.2,
        max_turbo_ghz=3.2,
        # Two cores of AVX2-heavy at 3.1 GHz exceed Icc_max = 29 A but
        # stay within it at 2.2 GHz (Fig. 7a); voltage never nears 1.15 V.
        vf_points=((1.0, 0.640), (2.2, 0.809), (3.2, 0.950)),
        r_ll_mohm=1.8,
        vr_kind=VRKind.MBVR,
        vr_slew_mv_per_us=1.25,
        vr_command_latency_ns=1_500.0,
        vid_step_mv=2.5,
        vcc_max=1.15,
        icc_max=29.0,
        avx_pg_present=True,
        pg_wake_ns=12.0,
        max_vector_bits=512,
        reset_time_us=650.0,
        pll_relock_ns=1_500.0,
        turbo_ceilings={
            TurboLicense.LVL0: (3.2, 3.1),
            TurboLicense.LVL1: (3.0, 2.9),
            TurboLicense.LVL2: (2.8, 2.6),
        },
        thermal=ThermalSpec(r_th_c_per_w=1.2, tau_s=3.0, t_ambient_c=50.0),
    )


def sandy_bridge_i7_2600k() -> ProcessorConfig:
    """Intel Sandy Bridge Core i7-2600K: the oldest affected client part.

    Section 6.4: every Intel client processor from Sandy Bridge (2010)
    onward is affected by at least one of the three channels.  Sandy
    Bridge predates AVX power gating and AVX-512 and its AVX unit is
    256-bit light-path only, but the shared MBVR rail and guardband
    machinery are already in place.
    """
    return ProcessorConfig(
        name="Core i7-2600K",
        codename="Sandy Bridge",
        n_cores=4,
        smt_per_core=2,
        min_freq_ghz=0.8,
        base_freq_ghz=3.4,
        max_turbo_ghz=3.8,
        vf_points=((0.8, 0.66), (2.0, 0.84), (3.4, 1.08), (3.8, 1.18)),
        r_ll_mohm=2.1,
        vr_kind=VRKind.MBVR,
        vr_slew_mv_per_us=1.0,
        vr_command_latency_ns=2_000.0,
        vid_step_mv=2.5,
        vcc_max=1.35,
        icc_max=95.0,
        avx_pg_present=False,
        pg_wake_ns=0.0,
        max_vector_bits=256,
        reset_time_us=650.0,
        pll_relock_ns=2_000.0,
        turbo_ceilings={
            TurboLicense.LVL0: (3.8, 3.7, 3.6, 3.5),
            TurboLicense.LVL1: (3.6, 3.5, 3.4, 3.4),
            TurboLicense.LVL2: (3.6, 3.5, 3.4, 3.4),
        },
        thermal=ThermalSpec(r_th_c_per_w=0.55, tau_s=4.5, t_ambient_c=45.0),
    )


def skylake_sp_xeon_8160() -> ProcessorConfig:
    """Intel Skylake-SP Xeon Platinum 8160: a server-class part.

    Section 6.4 / footnote 13: the Intel core is one design for client
    and server, so server parts share the same current-management
    machinery — more cores on the same serialized rail, AVX-512 units,
    and deeper turbo-license derating.  (Real Skylake-SP feeds cores
    through per-core FIVRs behind a shared input rail; the package-level
    guardband coupling the channels need is still present, which we
    model as the shared rail.)
    """
    return ProcessorConfig(
        name="Xeon Platinum 8160",
        codename="Skylake-SP",
        n_cores=24,
        smt_per_core=2,
        min_freq_ghz=1.0,
        base_freq_ghz=2.1,
        max_turbo_ghz=3.7,
        vf_points=((1.0, 0.62), (2.1, 0.78), (3.7, 1.02)),
        r_ll_mohm=1.1,  # server VRs are beefier (lower load-line)
        vr_kind=VRKind.MBVR,
        vr_slew_mv_per_us=1.25,
        vr_command_latency_ns=1_500.0,
        vid_step_mv=2.5,
        vcc_max=1.20,
        icc_max=255.0,
        avx_pg_present=True,
        pg_wake_ns=14.0,
        max_vector_bits=512,
        reset_time_us=670.0,
        pll_relock_ns=1_500.0,
        turbo_ceilings={
            TurboLicense.LVL0: tuple([3.7, 3.6] + [3.5] * 6 + [3.0] * 16),
            TurboLicense.LVL1: tuple([3.3, 3.2] + [3.1] * 6 + [2.6] * 16),
            TurboLicense.LVL2: tuple([2.9, 2.8] + [2.7] * 6 + [2.2] * 16),
        },
        thermal=ThermalSpec(r_th_c_per_w=0.25, tau_s=8.0, t_ambient_c=50.0),
    )


def amd_zen2_like() -> ProcessorConfig:
    """An AMD-Zen-2-style part: per-core LDO regulators.

    Section 7: recent AMD processors feed each core through its own
    digital LDO.  The paper reports that naively porting IChannels to
    recent AMD parts does not work; with per-core rails there is no
    cross-core transition serialisation to exploit and the fast LDO
    ramp shrinks same-core throttling below usability — this preset
    demonstrates exactly that (``tests/test_other_processors.py``).
    """
    return ProcessorConfig(
        name="Zen2-class 8-core",
        codename="Zen2-like",
        n_cores=8,
        smt_per_core=2,
        min_freq_ghz=1.4,
        base_freq_ghz=3.6,
        max_turbo_ghz=4.4,
        vf_points=((1.4, 0.75), (3.6, 1.05), (4.4, 1.30)),
        r_ll_mohm=1.2,
        vr_kind=VRKind.LDO,
        vr_slew_mv_per_us=100.0,
        vr_command_latency_ns=50.0,
        vid_step_mv=2.5,
        vcc_max=1.40,
        icc_max=140.0,
        avx_pg_present=True,
        pg_wake_ns=10.0,
        max_vector_bits=256,
        reset_time_us=600.0,
        pll_relock_ns=1_000.0,
        turbo_ceilings={
            TurboLicense.LVL0: tuple([4.4, 4.3] + [4.2] * 6),
            TurboLicense.LVL1: tuple([4.3, 4.2] + [4.1] * 6),
            TurboLicense.LVL2: tuple([4.3, 4.2] + [4.1] * 6),
        },
        thermal=ThermalSpec(r_th_c_per_w=0.35, tau_s=6.0, t_ambient_c=45.0),
        per_core_rails=True,
    )


_PRESET_FACTORIES: Dict[str, Callable[[], ProcessorConfig]] = {
    "haswell": haswell_i7_4770k,
    "coffee_lake": coffee_lake_i7_9700k,
    "cannon_lake": cannon_lake_i3_8121u,
    "sandy_bridge": sandy_bridge_i7_2600k,
    "skylake_sp": skylake_sp_xeon_8160,
    "amd_zen2": amd_zen2_like,
}

#: Names accepted by :func:`preset`.
PRESETS: Tuple[str, ...] = tuple(_PRESET_FACTORIES)


def preset(name: str) -> ProcessorConfig:
    """Look a preset up by name (``haswell``/``coffee_lake``/``cannon_lake``)."""
    factory = _PRESET_FACTORIES.get(name.strip().lower())
    if factory is None:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESETS}")
    return factory()
