"""The defender registry of the mitigation matrix.

Seven defenders, in two groups:

* the **paper recipes** (Section 7): per-core LDO/IVR rails, improved
  (grant-before-throttle) throttling, and the secure mode;
* the **prevention-literature recipes**: scheduled noise injection,
  turbo-license limiting, and temporal-partitioning state flush —
  the classes of defence the RISC-V prevention work catalogues for
  current-management side channels.

Each :class:`Defender` is a frozen bundle of the scenario knobs that
realise the defence: a :class:`~repro.soc.system.SystemOptions`
(system-level switches), a fault-suite string (defender-controlled
perturbation processes), and preset overrides.  The three literature
recipes source their knobs from the registered
``matrix_noise_injection`` / ``matrix_turbo_license`` /
``matrix_state_flush`` scenarios so the matrix, the scenario CLI and
docs/SCENARIOS.md all read one definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ConfigError
from repro.scenarios.registry import get_spec
from repro.soc.system import SystemOptions


@dataclass(frozen=True)
class Defender:
    """One defence recipe: the scenario knobs that realise it.

    ``options``/``faults``/``overrides`` are grafted onto the target
    channel's baseline scenario by
    :func:`~repro.mitigations.matrix.cells.cell_spec`; ``scenario``
    names the registered scenario this defender was sourced from (empty
    for the paper recipes, whose knobs are plain option switches).
    ``overhead_note`` is the qualitative cost the source literature
    quotes, complementing the measured
    :class:`~repro.mitigations.matrix.cost.DefenderCost`.
    """

    name: str
    description: str
    options: SystemOptions = field(default_factory=SystemOptions)
    faults: str = ""
    overrides: Tuple[Tuple[str, float], ...] = ()
    scenario: str = ""
    overhead_note: str = ""


def _literature_defenders() -> Tuple[Defender, ...]:
    """The three recipes sourced from registered matrix scenarios."""
    noise = get_spec("matrix_noise_injection")
    turbo = get_spec("matrix_turbo_license")
    flush = get_spec("matrix_state_flush")
    return (
        Defender(
            name="noise_injection",
            description=(
                "Scheduled grant-queue jamming plus slot-clock jitter "
                "smearing the TP level ladder"),
            faults=noise.faults,
            scenario=noise.name,
            overhead_note="jamming duty cycle steals grant bandwidth",
        ),
        Defender(
            name="turbo_license_limit",
            description=(
                "Package clamped to the worst-case turbo-license "
                "ceiling so guardband traffic stops moving frequency"),
            options=turbo.options,
            overrides=turbo.overrides,
            scenario=turbo.name,
            overhead_note="all turbo headroom above the ceiling forfeited",
        ),
        Defender(
            name="state_flush",
            description=(
                "Temporal partitioning: periodic worst-case state "
                "flush on a scheduling quantum"),
            faults=flush.faults,
            scenario=flush.name,
            overhead_note="every quantum pays a flush-and-settle stall",
        ),
    )


def _build_registry() -> Dict[str, Defender]:
    """All seven defenders, in documentation order."""
    paper = (
        Defender(
            name="none",
            description="No defence: the paper's baseline substrate",
        ),
        Defender(
            name="per_core_ldo",
            description=(
                "Per-core LDO/IVR rails: no shared-rail serialisation "
                "exists for cross-core channels (paper Section 7)"),
            options=SystemOptions(per_core_vr=True, ldo_rails=True),
            overhead_note="roughly 11-13% core area for the LDO network",
        ),
        Defender(
            name="improved_throttling",
            description=(
                "Grant-before-throttle: the PMU raises guardbands "
                "without the blocking throttle window (paper Section 7)"),
            options=SystemOptions(improved_throttling=True),
            overhead_note="design effort only; removes the SMT observable",
        ),
        Defender(
            name="secure_mode",
            description=(
                "Guardbands pinned at the power-virus worst case: "
                "nothing transitions, nothing throttles (paper Section 7)"),
            options=SystemOptions(secure_mode=True),
            overhead_note="roughly 4-11% standing power at typical load",
        ),
    )
    return {d.name: d for d in paper + _literature_defenders()}


#: The registry: defender name -> :class:`Defender`, in documentation
#: order (paper recipes first, literature recipes after).
DEFENDERS: Dict[str, Defender] = _build_registry()


def defender_names() -> List[str]:
    """All defender names, in registry order."""
    return list(DEFENDERS)


def get_defender(name: str) -> Defender:
    """The defender called ``name`` (ConfigError on a typo)."""
    defender = DEFENDERS.get(name)
    if defender is None:
        raise ConfigError(
            f"unknown defender {name!r}; registered defenders: "
            f"{', '.join(defender_names())}")
    return defender
