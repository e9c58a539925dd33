"""Defender cost: what the defence charges the protected workload.

A defence that kills the channel by making the machine slow or hot is
not free, and the matrix reports that price next to the security
verdict.  The harness runs one fixed victim workload — a
calculix-like compute trace whose loops are sized at a fixed reference
frequency, so the instruction total is identical under every defender
— to completion on the defended system and on an undefended reference
sharing the same preset overrides, then compares:

* **runtime overhead** — relative completion-time stretch (throttle
  windows, flush stalls, forfeited turbo headroom all land here);
* **power overhead** — relative mean package power over the run
  (secure mode's pinned guardbands land here).

Both are deterministic, so the matrix goldens can digest them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Generator, List

from repro.isa.workload import PhaseTrace, calculix_like_trace, uniform_loop
from repro.mitigations.matrix.defenders import Defender, get_defender
from repro.scenarios.build import build_system
from repro.scenarios.registry import get_spec
from repro.scenarios.spec import ScenarioSpec
from repro.soc.system import System
from repro.units import ms_to_ns

#: Loops are sized at this frequency regardless of what the defended
#: machine actually runs at, so every defender executes the same
#: instruction count and completion times are comparable.
SIZING_FREQ_GHZ: float = 2.2

#: Victim workload length (at the sizing frequency) and its RNG seed.
WORKLOAD_MS: float = 3.0
_WORKLOAD_SEED: int = 17

#: Hard stop for a defended run: a defence that stretches the workload
#: past this point is scored at the cap (and is a broken defence).
_HORIZON_CAP_NS: float = ms_to_ns(60.0)

#: Power is averaged over this many evenly spaced samples of the run.
_POWER_SAMPLES: int = 257


@dataclass(frozen=True)
class DefenderCost:
    """One defender's measured price on the victim workload."""

    defender: str
    completion_ns: float
    reference_ns: float
    mean_power_w: float
    reference_power_w: float

    @property
    def runtime_overhead(self) -> float:
        """Relative completion-time stretch vs the undefended run."""
        return self.completion_ns / self.reference_ns - 1.0

    @property
    def power_overhead(self) -> float:
        """Relative mean-package-power increase vs the undefended run."""
        return self.mean_power_w / self.reference_power_w - 1.0

    def to_mapping(self) -> Dict[str, Any]:
        """Plain-dict form (derived overheads included) for export."""
        mapping = dataclasses.asdict(self)
        mapping["runtime_overhead"] = self.runtime_overhead
        mapping["power_overhead"] = self.power_overhead
        return mapping


def _timed_program(system: System, thread_id: int, trace: PhaseTrace,
                   out: List[float]) -> Generator:
    """Play ``trace`` with loops sized at :data:`SIZING_FREQ_GHZ`.

    Appends the completion timestamp to ``out`` when the last phase
    retires — the completion signal :func:`_completion_and_power`
    reads after the run.
    """
    for phase in trace:
        loop = uniform_loop(phase.iclass,
                            duration_us=phase.duration_ns / 1_000.0,
                            freq_ghz=SIZING_FREQ_GHZ)
        yield system.execute(thread_id, loop)
    out.append(system.now)


def _completion_and_power(spec: ScenarioSpec) -> Dict[str, float]:
    """Run the fixed victim workload on ``spec``'s system and score it."""
    import numpy as np

    system = build_system(spec)
    trace = calculix_like_trace(total_ms=WORKLOAD_MS, seed=_WORKLOAD_SEED)
    out: List[float] = []
    system.spawn(_timed_program(system, system.thread_on(0), trace, out),
                 name="cost_workload")
    system.run_until(_HORIZON_CAP_NS)
    completion_ns = out[0] if out else _HORIZON_CAP_NS
    grid = np.linspace(0.0, completion_ns, _POWER_SAMPLES)
    mean_power = float(np.mean([system.power_at(float(t)) for t in grid]))
    return {"completion_ns": float(completion_ns),
            "mean_power_w": mean_power}


def _defended_spec(defender: Defender) -> ScenarioSpec:
    """The cost scenario for ``defender``: baseline + defender knobs."""
    base = get_spec("baseline_cores")
    if defender.name == "none":
        return base
    return dataclasses.replace(
        base, name=f"matrix_cost_{defender.name}",
        description=f"Cost run for the {defender.name} defender.",
        options=defender.options, faults=defender.faults,
        overrides=defender.overrides)


def _reference_spec(defender: Defender) -> ScenarioSpec:
    """The undefended reference: same preset overrides, no defence.

    Keeping the defender's preset overrides (e.g. the turbo defender's
    3.0 GHz base request) isolates the defence mechanism's cost from
    the operating point it assumes.
    """
    base = get_spec("baseline_cores")
    if not defender.overrides:
        return base
    return dataclasses.replace(
        base, name=f"matrix_cost_ref_{defender.name}",
        description=f"Undefended cost reference for {defender.name}.",
        overrides=defender.overrides)


def defender_cost(name: str) -> DefenderCost:
    """Measure :class:`DefenderCost` for the defender called ``name``."""
    defender = get_defender(name)
    defended = _completion_and_power(_defended_spec(defender))
    reference = _completion_and_power(_reference_spec(defender))
    return DefenderCost(
        defender=defender.name,
        completion_ns=defended["completion_ns"],
        reference_ns=reference["completion_ns"],
        mean_power_w=defended["mean_power_w"],
        reference_power_w=reference["mean_power_w"])
