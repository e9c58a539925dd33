"""Base machinery of the fault-injection subsystem.

A :class:`FaultModel` is a deterministic, seedable perturbation of the
simulation at one well-defined seam (the DAQ sample path, the PMU grant
queue, the RC thermal model, the receiver's TSC, the slot schedule).
Models are *composable*: a :class:`~repro.faults.injector.FaultInjector`
holds any number of them and attaches the whole suite to a
:class:`~repro.soc.system.System` in one call.

Determinism contract: every model draws randomness only from generators
created by :meth:`FaultModel.rng`, which seeds from ``(seed, model name,
salt)`` — except ``slot-jitter``, whose per-slot delays come from the
counter hash of :class:`~repro.core.sync.PerturbedSchedule`, keyed on
the same tuple.  Two runs with the same seeds, the same models and the same
workload produce bit-identical simulations — fault injection never makes
an experiment unrepeatable.

Intensity contract: every model scales its magnitude knobs by a single
``intensity`` factor, so sweeps (``analysis.resilience_sweep``) can turn
one dial from "clean" (0.0) through "nominal" (1.0) to "hostile" (>1).
"""

from __future__ import annotations

import abc
import zlib
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, ClassVar, Union

import numpy as np

from repro.errors import bounded, check_fields

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.faults.injector import FaultInjector
    from repro.soc.system import System

#: Seed-space tag keeping fault RNG streams disjoint from the system's
#: own noise streams even when the user passes the same integer seed.
SEED_SPACE = 0xFA017


def _salt_int(value: Union[int, str]) -> int:
    """A stable integer for seed tuples from an int or short string."""
    if isinstance(value, int):
        return value
    return zlib.crc32(value.encode())


@dataclass(eq=False, kw_only=True)
class FaultModel(abc.ABC):
    """One deterministic perturbation of the simulation.

    A concrete model is a keyword-only dataclass declaring its magnitude
    knobs as typed fields (with :func:`~repro.errors.bounded` limits);
    :func:`~repro.errors.check_fields` checks every knob at construction.

    Parameters
    ----------
    intensity:
        Scales every magnitude knob of the concrete model; ``0`` renders
        the model inert, ``1`` is its nominal strength.
    seed:
        Root of the model's private random streams.
    """

    #: Spec-string identifier of the model (kebab-case, unique).
    name: ClassVar[str] = ""

    #: True when the model perturbs measured sample series (DAQ seam).
    perturbs_measurements: ClassVar[bool] = False

    #: True when the model perturbs slot schedules (sync seam).
    perturbs_schedule: ClassVar[bool] = False
    #: Perturbation events applied so far (for reports and tests); a
    #: class attribute, not a field: the first ``+= 1`` makes it an
    #: instance attribute.
    events = 0

    intensity: float = bounded(1.0, ge=0)
    seed: int = bounded(0, ge=0)

    def __post_init__(self) -> None:
        check_fields(self)

    @abc.abstractmethod
    def attach(self, system: "System", injector: "FaultInjector") -> None:
        """Install the model at its seam of ``system``.

        Called exactly once per (model, system) by
        :meth:`FaultInjector.attach`; event-driven models schedule their
        first event here, passive models (measurement/schedule seams)
        only record the handles they need.
        """

    def rng(self, *salt: Union[int, str]) -> np.random.Generator:
        """A deterministic generator for this model and ``salt``.

        Seeding from ``(SEED_SPACE, seed, name, *salt)`` keeps each
        (model, purpose) stream independent: a schedule fault drawing
        per-slot delays cannot perturb the stream a DAQ fault draws
        sample noise from, whatever the call order.
        """
        parts = (SEED_SPACE, self.seed, _salt_int(self.name))
        return np.random.default_rng(parts + tuple(_salt_int(s) for s in salt))

    def describe(self) -> str:
        """Spec-string form of this model (``name:key=value,...``).

        Knobs come in declaration order, then ``intensity`` and ``seed``;
        an unset (None) knob is left out.  A float prints in ``g`` form
        when that reads back exactly, else in full.
        """
        knobs = [f.name for f in fields(self)
                 if f.init and f.name not in ("intensity", "seed")]
        parts = []
        for key in knobs + ["intensity", "seed"]:
            value = getattr(self, key)
            if value is None:
                continue
            if isinstance(value, float) and float(f"{value:g}") == value:
                value = f"{value:g}"
            parts.append(f"{key}={value}")
        return f"{self.name}:{','.join(parts)}"
