"""Fault-spec strings: the picklable, CLI-friendly form of a fault suite.

Grammar (whitespace-insensitive)::

    spec     := clause (";" clause)*
    clause   := name [":" knob ("," knob)*]
    knob     := key "=" value
    name     := "rail-jitter" | "dropout" | "grant-interference"
              | "thermal-drift" | "clock-skew" | "slot-jitter"
              | "state-flush" | "default"

Examples::

    "slot-jitter:sigma_us=40"
    "clock-skew:drift_ppm_per_s=5000;grant-interference:burst_rate_per_s=300"
    "default"                      # the whole suite at nominal intensity
    "default:intensity=1.5,seed=3" # the whole suite, scaled and reseeded

Spec strings are the currency everything else trades in: ``python -m
repro --faults SPEC``, the resilience sweep's worker tasks (strings
pickle; attached injectors don't), and
:meth:`repro.faults.FaultInjector.describe` round-trips back to one.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.errors import ConfigError
from repro.faults.base import FaultModel
from repro.faults.injector import FaultInjector
from repro.faults.models import (
    GrantQueueInterference,
    RailVoltageJitter,
    ReceiverClockSkew,
    SampleDropout,
    SlotScheduleJitter,
    StateFlush,
    ThermalDriftRamp,
)

#: Models the ``default`` suite instantiates: the six *environment*
#: seams.  ``state-flush`` is excluded by design — it models a defender
#: recipe (temporal partitioning), not ambient noise, and adding it
#: here would silently change every experiment pinned against the
#: default suite (the resilience goldens among them).
_DEFAULT_SUITE: tuple = (
    RailVoltageJitter, SampleDropout, GrantQueueInterference,
    ThermalDriftRamp, ReceiverClockSkew, SlotScheduleJitter,
)

#: Registry of spec names to model classes (see :func:`fault_model_names`).
FAULT_MODELS: Dict[str, Type[FaultModel]] = {
    cls.name: cls for cls in _DEFAULT_SUITE + (StateFlush,)
}


def fault_model_names() -> List[str]:
    """All registered model names plus the ``default`` suite alias."""
    return sorted(FAULT_MODELS) + ["default"]


def default_fault_suite(intensity: float = 1.0,
                        seed: int = 0) -> List[FaultModel]:
    """One of every fault model at its nominal parameters.

    The suite EXPERIMENTS.md's resilience numbers are measured under:
    every environment seam perturbed at once, all scaled by one
    ``intensity`` dial (defender-style models such as ``state-flush``
    are opt-in and not included).
    """
    return [cls(intensity=intensity, seed=seed) for cls in _DEFAULT_SUITE]


def _coerce(key: str, raw: str) -> float:
    """Parse one knob value: an integer literal as ``int``, else ``float``.

    The model's declared field type then decides what it accepts, so an
    ``int`` knob (``seed``, ``core``) takes integer literals only.
    """
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"fault knob {key}={raw!r} is not a number") from None


def parse_fault_spec(spec: str) -> FaultInjector:
    """Build a :class:`FaultInjector` from a spec string.

    Raises :class:`~repro.errors.ConfigError` on unknown model names or
    knobs, listing the valid alternatives.
    """
    models: List[FaultModel] = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        name, _, knob_text = clause.partition(":")
        name = name.strip()
        knobs: Dict[str, float] = {}
        if knob_text.strip():
            for knob in knob_text.split(","):
                key, sep, raw = knob.partition("=")
                if not sep:
                    raise ConfigError(
                        f"malformed fault knob {knob.strip()!r} in "
                        f"{clause!r}; expected key=value")
                knobs[key.strip()] = _coerce(key.strip(), raw.strip())
        if name == "default":
            extra = set(knobs) - {"intensity", "seed"}
            if extra:
                raise ConfigError(
                    f"'default' accepts only intensity/seed, got {sorted(extra)}")
            models.extend(default_fault_suite(**knobs))  # type: ignore[arg-type]
            continue
        cls = FAULT_MODELS.get(name)
        if cls is None:
            raise ConfigError(
                f"unknown fault model {name!r}; valid names: "
                f"{', '.join(fault_model_names())}")
        try:
            models.append(cls(**knobs))  # type: ignore[arg-type]
        except TypeError as exc:
            raise ConfigError(f"bad knobs for fault {name!r}: {exc}") from None
    if not models:
        raise ConfigError(f"fault spec {spec!r} names no models")
    return FaultInjector(models)
