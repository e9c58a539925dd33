"""Exception hierarchy for the repro package, and the field validator.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing configuration mistakes from runtime protocol failures.
:func:`check_fields` checks a config dataclass's fields against their
declared types and bounds and raises the class's own error type.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import MISSING, field, fields
from typing import (
    Any, Callable, Mapping, Optional, Tuple, Type, Union, get_args,
    get_origin, get_type_hints,
)


class ReproError(Exception):
    """Base class of all errors raised by the repro package."""


class ConfigError(ReproError):
    """A simulation or channel configuration is inconsistent or unsupported.

    Examples: negative slew rate, SMT channel requested on a processor
    without SMT, unknown instruction class name.
    """


class SimulationError(ReproError):
    """The simulation engine reached an invalid state.

    Examples: an event scheduled in the past, a program yielded an
    unknown request object, time overflowed the configured horizon.
    """


class ProtocolError(ReproError):
    """A covert-channel protocol invariant was violated.

    Examples: receiver asked to decode before calibration, payload length
    not a multiple of the symbol width, sync slot missed by more than a
    slot length.
    """


class CalibrationError(ProtocolError):
    """Calibration could not derive usable decision thresholds.

    Raised when measured throttling-period level distributions overlap so
    much that no monotone threshold assignment separates them.
    """


class MeasurementError(ReproError):
    """A measurement facility was used incorrectly.

    Examples: reading a DAQ trace before arming it, requesting a sample
    rate above the instrument's maximum.
    """


# -- declared field validation ------------------------------------------------
# Here, beside the errors it raises, because every layer imports this module.

#: Bound keys a numeric field may declare, and how a violation reads.
_BOUNDS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"),
           "le": (operator.le, "<="), "lt": (operator.lt, "<")}

#: A compiled field rule: returns the value to store or raises _Invalid.
_Check = Callable[[Any], Any]


def bounded(default: Any = MISSING, **bounds: float) -> Any:
    """A dataclass field whose number :func:`check_fields` holds to
    ``bounds`` (``ge``/``gt``/``le``/``lt``)."""
    for key in bounds:
        if key not in _BOUNDS:
            raise TypeError(f"unknown bound {key!r}; valid: {list(_BOUNDS)}")
    return field(default=default, metadata=bounds)


class _Invalid(Exception):
    """A rejected value; ``where`` locates it inside the field."""

    where = ""


def _instance(kind: type, noun: str) -> _Check:
    """The rule of a ``bool``, ``str``, enum or nested-spec field."""
    def check(value: Any) -> Any:
        if isinstance(value, kind):
            return value
        raise _Invalid(f"must be {noun}, got {value!r}")
    return check


def _number(kind: type, bounds: Mapping[str, float]) -> _Check:
    """The rule of an ``int`` or ``float`` field with its ``bounds``."""
    noun, accepted = (("an integer", numbers.Integral) if kind is int
                      else ("a number", numbers.Real))
    limits = [(*_BOUNDS[key], bound) for key, bound in bounds.items()]

    def check(value: Any) -> Any:
        if type(value) is not kind:
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise _Invalid(f"must be {noun}, got {value!r}")
            try:
                value = kind(value)
            except OverflowError:
                raise _Invalid(f"must be finite, got {value!r}") from None
        if kind is float and not math.isfinite(value):
            raise _Invalid(f"must be finite, got {value!r}")
        for test, text, bound in limits:
            if not test(value, bound):
                raise _Invalid(f"must be {text} {bound}, got {value!r}")
        return value
    return check


def _tuple(items: Tuple[_Check, ...], variadic: bool) -> _Check:
    """The rule of a ``Tuple`` field: one item rule per position, or
    ``items[0]`` for every item of a ``Tuple[X, ...]``."""
    def check(value: Any) -> Any:
        if not isinstance(value, (tuple, list)):
            raise _Invalid(f"must be a list, got {value!r}")
        if not variadic and len(value) != len(items):
            raise _Invalid(f"must have {len(items)} items, got {value!r}")
        stored = []
        for index, item in enumerate(value):
            try:
                stored.append(items[0 if variadic else index](item))
            except _Invalid as exc:
                exc.where = f"[{index}]{exc.where}"
                raise
        return tuple(stored)
    return check


def _compile(kind: Any, bounds: Mapping[str, float]) -> Optional[_Check]:
    """The rule for one declared type; None leaves the field unchecked."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is Union:  # Optional[X]: the bounds hold X
        inner = _compile(args[0], bounds)
        if inner is None:
            return None
        return lambda value: None if value is None else inner(value)
    if bounds and kind not in (int, float):
        raise TypeError(f"bounds {dict(bounds)} on a non-numeric {kind}")
    if kind is int or kind is float:
        return _number(kind, bounds)
    if kind is bool or kind is str:
        return _instance(kind, "true or false" if kind is bool else "a string")
    if origin is tuple:
        variadic = args[-1] is Ellipsis
        items = tuple(_compile(arg, {}) or (lambda value: value)
                      for arg in (args[:1] if variadic else args))
        return _tuple(items, variadic)
    if kind is Any or origin is not None:  # a Dict: the class checks it
        return None
    article = "an" if kind.__name__[0] in "AEIOU" else "a"
    return _instance(kind, f"{article} {kind.__name__}")


@functools.lru_cache(maxsize=None)
def _rules(cls: type) -> Tuple[Tuple[str, _Check], ...]:
    """``cls``'s ``(field name, rule)`` pairs, compiled once per class."""
    hints = get_type_hints(cls)
    return tuple((f.name, check) for f in fields(cls)
                 if (check := _compile(hints[f.name], f.metadata)))


def check_fields(obj: Any, error: Type[ReproError] = ConfigError,
                 label: str = "") -> None:
    """Check every field of dataclass ``obj`` against its declared type.

    An ``int`` field takes an integer but never a bool; a ``float``
    field any real number, stored as a float, that is finite; a ``str``
    or ``bool`` field only a str or bool.  A ``Tuple`` field takes a
    tuple or list (stored as a tuple) and checks its items,
    ``Optional[X]`` takes None or an ``X``, and a field of any other
    class (an enum, a nested spec) an instance of it.  :func:`bounded`
    metadata bounds a number (or an optional one).  The first violation
    raises ``error`` naming the field, after ``label.`` when given, and
    the value.  Every config, spec and fault-model dataclass calls this
    from ``__post_init__``; cross-field rules stay with the class.
    """
    for name, check in _rules(type(obj)):
        value = getattr(obj, name)
        try:
            stored = check(value)
        except _Invalid as exc:
            where = f"{label}.{name}" if label else name
            raise error(f"{where}{exc.where} {exc}") from None
        if stored is not value:
            object.__setattr__(obj, name, stored)
