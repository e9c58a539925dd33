"""Base machinery of the fault-injection subsystem.

A :class:`FaultModel` is a deterministic, seedable perturbation of the
simulation at one well-defined seam (the DAQ sample path, the PMU grant
queue, the RC thermal model, the receiver's TSC, the slot schedule).
Models are *composable*: a :class:`~repro.faults.injector.FaultInjector`
holds any number of them and attaches the whole suite to a
:class:`~repro.soc.system.System` in one call.

Determinism contract: every model draws randomness only from streams
keyed on ``(SEED_SPACE, seed, model name, *salt)``
(:meth:`FaultModel.seed_parts`).  The two DAQ-seam models draw numpy
sample arrays from :meth:`FaultModel.rng`; ``grant-interference`` and
``slot-jitter`` draw from the splitmix64 counter hash of
:mod:`repro.core.sync`, so a fault-injected session never imports
numpy.  Two runs with the same seeds, the same models and the same
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
from typing import TYPE_CHECKING, ClassVar, Tuple, Union

from repro.errors import bounded, check_fields

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    import numpy as np

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

    def seed_parts(self, *salt: Union[int, str]) -> Tuple[int, ...]:
        """The key ``(SEED_SPACE, seed, name, *salt)`` of one stream.

        Keying every (model, purpose) stream on its own tuple keeps the
        streams independent: a schedule fault drawing per-slot delays
        cannot perturb the stream a DAQ fault draws sample noise from,
        whatever the call order.
        """
        return ((SEED_SPACE, self.seed, _salt_int(self.name))
                + tuple(_salt_int(s) for s in salt))

    def rng(self, *salt: Union[int, str]) -> "np.random.Generator":
        """A numpy generator seeded from :meth:`seed_parts` of ``salt``.

        Only the DAQ-seam models, which already hold numpy sample
        arrays, call this; numpy is imported here so that the other
        models never load it.
        """
        import numpy as np

        return np.random.default_rng(self.seed_parts(*salt))

    def describe(self) -> str:
        """Spec-string form of this model (``name:key=value,...``).

        Knobs come in declaration order, then ``intensity`` and ``seed``;
        an unset (None) knob is left out.  A float prints in ``g`` form
        when that reads back exactly, else in full (``repr``); ``-0.0``
        prints in full, because ``-0`` would read back as the integer 0.
        """
        knobs = [f.name for f in fields(self)
                 if f.init and f.name not in ("intensity", "seed")]
        parts = []
        for key in knobs + ["intensity", "seed"]:
            value = getattr(self, key)
            if value is None:
                continue
            if isinstance(value, float):
                text = f"{value:g}"
                exact = text != "-0" and float(text) == value
                value = text if exact else repr(value)
            parts.append(f"{key}={value}")
        return f"{self.name}:{','.join(parts)}"
