"""The named scenario registry (16 curated topologies).

Scenarios fall into four groups:

* **Paper baselines** — each covert channel alone on its reference
  part (``baseline_thread``/``baseline_smt``/``baseline_cores``), plus
  the FIVR variant (``fivr_cores``) and the two configurations the
  paper reports as *defeating* the channels: per-core LDO rails
  (``ldo_cores``) and the secure mode (``secure_mode``) — both are
  expected to calibrate as infeasible, and the registry pins that.
* **Environment** — the channel beside realistic disturbance:
  OS noise plus a 7-zip-style neighbour (``noisy_neighbour``), the
  default fault suite (``faulted_default``), and trace-driven replay
  of a recorded phase trace (``trace_replay``).
* **Multi-tenant interference** — N sender/receiver pairs sharing one
  PMU (``interference_1pair`` .. ``interference_8pair``), the
  Multi-Throttling-Cores root cause at scale; tenants spread their
  slot clocks across the slot to dodge each other.
* **Mitigation-matrix defenders** — the cross-core channel under each
  non-paper defender of the attacker/defender matrix
  (``matrix_noise_injection``, ``matrix_turbo_license``,
  ``matrix_state_flush``).

Every registered spec is immutable, cheap enough for the verify/docs
gates (small payloads, trimmed training), and renders its own entry in
docs/SCENARIOS.md via :mod:`repro.scenarios.docsgen`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import ConfigError
from repro.scenarios.spec import (
    NoiseSpec,
    ScenarioSpec,
    TenantSpec,
    WorkloadSpec,
)
from repro.soc.system import SystemOptions

#: The registry: name -> spec, in registration (= documentation) order.
_REGISTRY: Dict[str, ScenarioSpec] = {}


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Add ``spec`` to the registry; duplicate names are ConfigErrors."""
    if spec.name in _REGISTRY:
        raise ConfigError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def scenario_names() -> List[str]:
    """All registered scenario names, in registration order."""
    return list(_REGISTRY)


def get_spec(name: str) -> ScenarioSpec:
    """The registered scenario called ``name`` (ConfigError on a typo)."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ConfigError(
            f"unknown scenario {name!r}; registered scenarios: "
            f"{', '.join(scenario_names())}")
    return spec


def all_specs() -> Tuple[ScenarioSpec, ...]:
    """Every registered spec, in registration order."""
    return tuple(_REGISTRY.values())


#: Protocol trim shared by the cheap registry scenarios: one training
#: round instead of three shrinks calibration cost without touching
#: the decode path.
_FAST_PROTOCOL: Tuple[Tuple[str, int], ...] = (("training_rounds", 1),)


def interference_spec(n_pairs: int, preset: str = "skylake_sp",
                      payload_hex: str = "43") -> ScenarioSpec:
    """An N-pair cross-core interference scenario on one shared rail.

    Pair ``i`` occupies cores ``(2i, 2i+1)`` with its slot clock offset
    by ``i / n_pairs`` of the common slot, so the pairs' transitions
    tile the slot evenly — the fairest static schedule.  The default
    ``skylake_sp`` preset fits up to 12 pairs; the
    :func:`repro.scenarios.run.interference_sweep` experiment builds
    its 1/2/4/8-pair ladder through this factory.
    """
    if n_pairs < 1:
        raise ConfigError(f"n_pairs must be >= 1, got {n_pairs}")
    tenants = tuple(
        TenantSpec("cores", 2 * i, 2 * i + 1,
                   offset_fraction=i / n_pairs)
        for i in range(n_pairs))
    return ScenarioSpec(
        name=f"interference_{n_pairs}pair",
        description=(
            f"{n_pairs} cross-core pair(s) sharing one {preset} rail, "
            f"slot clocks tiled at 1/{n_pairs} offsets — "
            f"Multi-Throttling-Cores contention at scale."),
        preset=preset,
        protocol=_FAST_PROTOCOL,
        tenants=tenants,
        payload_hex=payload_hex,
    )


# -- paper baselines ---------------------------------------------------------

register(ScenarioSpec(
    name="baseline_thread",
    description=(
        "IccThreadCovert alone on Cannon Lake: sender and receiver "
        "time-share one hardware thread (paper Section 4.3.2)."),
    preset="cannon_lake",
    tenants=(TenantSpec("thread", 0, 0),),
))

register(ScenarioSpec(
    name="baseline_smt",
    description=(
        "IccSMTcovert alone on Cannon Lake: the parties run on SMT "
        "siblings of one core (paper Section 4.3.2)."),
    preset="cannon_lake",
    tenants=(TenantSpec("smt", 0, 0),),
))

register(ScenarioSpec(
    name="baseline_cores",
    description=(
        "IccCoresCovert alone on Cannon Lake: two physical cores "
        "coupled only through the shared MBVR rail (Section 4.3.1)."),
    preset="cannon_lake",
    tenants=(TenantSpec("cores", 0, 1),),
))

register(ScenarioSpec(
    name="fivr_cores",
    description=(
        "The cross-core channel on Haswell's faster FIVR: shorter "
        "throttling periods, same root cause (paper Figure 8a)."),
    preset="haswell",
    tenants=(TenantSpec("cores", 0, 1),),
))

register(ScenarioSpec(
    name="ldo_cores",
    description=(
        "The cross-core channel against per-core LDO rails (an AMD-"
        "Zen2-style part): no shared-rail serialisation exists, so "
        "calibration finds no separable levels — registered to pin "
        "the channel's expected infeasibility (paper Section 7)."),
    preset="amd_zen2",
    tenants=(TenantSpec("cores", 0, 1),),
))

register(ScenarioSpec(
    name="secure_mode",
    description=(
        "The same-thread channel against the paper's secure mode: "
        "guardbands pinned at the power-virus worst case, nothing "
        "transitions, nothing throttles — expected infeasible "
        "(paper Section 7)."),
    preset="cannon_lake",
    options=SystemOptions(secure_mode=True),
    tenants=(TenantSpec("thread", 0, 0),),
))

# -- environment: noise, faults, trace replay --------------------------------

register(ScenarioSpec(
    name="noisy_neighbour",
    description=(
        "The cross-core channel under OS noise on both tenant threads "
        "plus a 7-zip-style compressor sharing the sender's core over "
        "SMT: the adaptive protocol rides out the interference (paper "
        "Section 6.3)."),
    preset="cannon_lake",
    tenants=(TenantSpec("cores", 0, 1),),
    noise=NoiseSpec(horizon_ms=60.0),
    background=(WorkloadSpec("sevenzip", core=0, smt_slot=1,
                             duration_ms=60.0, seed=7),),
))

register(ScenarioSpec(
    name="faulted_default",
    description=(
        "The same-thread channel under the default deterministic "
        "fault suite (rail jitter, dropout, grant interference, "
        "thermal drift, clock skew, slot jitter) at nominal "
        "intensity — docs/FAULTS.md's resilience setting."),
    preset="cannon_lake",
    tenants=(TenantSpec("thread", 0, 0),),
    faults="default:intensity=1.0,seed=3",
))

register(ScenarioSpec(
    name="trace_replay",
    description=(
        "The cross-core channel beside a trace-driven replay of a "
        "recorded phase trace (an AVX2 burst pattern captured from "
        "the 7-zip-like workload) on the second core's SMT sibling."),
    preset="cannon_lake",
    tenants=(TenantSpec("cores", 0, 1),),
    background=(WorkloadSpec(
        kind="replay", core=1, smt_slot=1, duration_ms=24.0,
        phases=(
            ("SCALAR_64", 5_000_000.0),
            ("HEAVY_256", 60_000.0),
            ("SCALAR_64", 3_500_000.0),
            ("HEAVY_256", 45_000.0),
            ("SCALAR_64", 6_000_000.0),
            ("LIGHT_256", 80_000.0),
            ("SCALAR_64", 4_200_000.0),
            ("HEAVY_256", 55_000.0),
            ("SCALAR_64", 5_060_000.0),
        )),),
))

# -- multi-tenant interference ladder ----------------------------------------

register(interference_spec(1, preset="coffee_lake"))
register(interference_spec(2, preset="coffee_lake"))
register(interference_spec(4))
register(interference_spec(8))

# -- mitigation-matrix defenders ---------------------------------------------
#
# The non-paper defender recipes of the attacker/defender evaluation
# matrix (repro.mitigations.matrix), registered here so the matrix, the
# scenario CLI and docs/SCENARIOS.md all read one definition.  Each is
# the cross-core channel (the hardest to defend) under one defender.

register(ScenarioSpec(
    name="matrix_noise_injection",
    description=(
        "The cross-core channel against defender-controlled noise "
        "injection: scheduled grant-queue jamming plus slot-clock "
        "jitter smear the TP level ladder without a standing "
        "frequency cost (mitigation-matrix defender)."),
    preset="cannon_lake",
    tenants=(TenantSpec("cores", 0, 1),),
    faults=("grant-interference:burst_rate_per_s=500,hold_us=150,seed=5;"
            "slot-jitter:sigma_us=2.5,cap_us=12,seed=5"),
))

register(ScenarioSpec(
    name="matrix_turbo_license",
    description=(
        "The cross-core channel at a 3.0 GHz turbo request against "
        "turbo-license limiting: the package is clamped to the worst-"
        "case license ceiling, so guardband traffic stops moving the "
        "frequency (no PLL-relock throttling) while rail settles "
        "still leak (mitigation-matrix defender)."),
    preset="cannon_lake",
    overrides=(("base_freq_ghz", 3.0),),
    options=SystemOptions(turbo_license_limit=True),
    tenants=(TenantSpec("cores", 0, 1),),
))

register(ScenarioSpec(
    name="matrix_state_flush",
    description=(
        "The cross-core channel against temporal partitioning: every "
        "scheduling quantum the current-management state is flushed "
        "to the power-virus worst case and released, overwriting the "
        "attacker's phased transitions (RISC-V prevention-style "
        "state flush; mitigation-matrix defender)."),
    preset="cannon_lake",
    tenants=(TenantSpec("cores", 0, 1),),
    faults="state-flush:quantum_us=500,hold_us=80",
))
