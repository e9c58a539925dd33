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
import math
import zlib
from typing import TYPE_CHECKING, ClassVar, Dict, Union

import numpy as np

from repro.errors import ConfigError

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


class FaultModel(abc.ABC):
    """One deterministic perturbation of the simulation.

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
    #: Perturbation events applied so far (for reports and tests); the
    #: first ``+= 1`` makes it an instance attribute.
    events: int = 0

    def __init__(self, intensity: float = 1.0, seed: int = 0) -> None:
        if not 0 <= intensity < math.inf:
            raise ConfigError(
                f"fault intensity must be finite and >= 0, got {intensity}")
        if seed < 0:
            raise ConfigError(f"fault seed must be >= 0, got {seed}")
        self.intensity = float(intensity)
        self.seed = int(seed)

    @abc.abstractmethod
    def attach(self, system: "System", injector: "FaultInjector") -> None:
        """Install the model at its seam of ``system``.

        Called exactly once per (model, system) by
        :meth:`FaultInjector.attach`; event-driven models schedule their
        first event here, passive models (measurement/schedule seams)
        only record the handles they need.
        """

    def params(self) -> Dict[str, float]:
        """The model's magnitude knobs, for specs and ``repr``."""
        return {}

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
        """Spec-string form of this model (``name:key=value,...``)."""
        knobs = dict(self.params())
        knobs["intensity"] = self.intensity
        knobs["seed"] = self.seed
        inner = ",".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in knobs.items())
        return f"{self.name}:{inner}" if inner else self.name

    def __repr__(self) -> str:
        """Debug form mirroring the spec string."""
        return f"<{type(self).__name__} {self.describe()}>"
