"""Vectorized trace sampling: piecewise signal sources.

The simulator's observables are all piecewise signals: a rail voltage is
piecewise-*linear* (flat plateaus joined by VR slews), while frequency,
Cdyn and throttle state are piecewise-*constant* step traces.  Sampling
them one scalar lookup at a time is O(samples x history) and dominates
host time when regenerating the paper's figures at the NI PCIe-6376's
3.5 MS/s.

:class:`PiecewiseLinearSignal` / :class:`PiecewiseConstantSignal` wrap a
breakpoint export — ``(times, values)`` arrays — and evaluate an entire
sample grid in one ``np.interp`` / ``np.searchsorted`` call; the
simulated DAQ calls their ``sample(times)`` directly.
``tests/test_measure_sampler.py`` checks each system export against the
per-sample accessors (``System.vcc_at``, ``System.icc_at``,
``StepTrace.value_at``) to 1e-12 on real rail traces.

Breakpoint export contract (see also ``docs/SIMULATOR.md``):

* breakpoint times are non-decreasing; consecutive duplicate
  ``(time, value)`` points are removed;
* a *linear* source is continuous: queries between breakpoints linearly
  interpolate, queries outside the span clamp to the end values;
* a *constant* (step) source is right-continuous: the value recorded at
  ``t`` is in force from ``t`` onward; a jump in a linear source is
  encoded as two breakpoints at the same time (left value first), which
  ``np.interp`` resolves to the right value — matching step semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import MeasurementError


def _as_breakpoint_arrays(times: Sequence[float], values: Sequence[float],
                          name: str) -> Tuple[np.ndarray, np.ndarray]:
    """Validate and convert a breakpoint export to float arrays."""
    times_arr = np.asarray(times, dtype=float)
    values_arr = np.asarray(values, dtype=float)
    if times_arr.ndim != 1 or values_arr.ndim != 1:
        raise MeasurementError(f"{name}: breakpoints must be 1-D arrays")
    if len(times_arr) != len(values_arr):
        raise MeasurementError(
            f"{name}: {len(times_arr)} breakpoint times vs "
            f"{len(values_arr)} values"
        )
    if len(times_arr) == 0:
        raise MeasurementError(f"{name}: empty breakpoint export")
    if np.any(np.diff(times_arr) < 0):
        raise MeasurementError(f"{name}: breakpoint times must be non-decreasing")
    return times_arr, values_arr


@dataclass(frozen=True)
class PiecewiseLinearSignal:
    """A continuous piecewise-linear signal built from breakpoints.

    :meth:`sample` evaluates a whole grid with one vectorized
    ``np.interp``.  Queries outside the breakpoint span clamp to the
    first/last value, matching
    :meth:`repro.pdn.regulator.VoltageRegulator.voltage_at`.
    """

    times_ns: np.ndarray
    values: np.ndarray
    name: str = "signal"

    def __post_init__(self) -> None:
        times, values = _as_breakpoint_arrays(self.times_ns, self.values,
                                              self.name)
        object.__setattr__(self, "times_ns", times)
        object.__setattr__(self, "values", values)

    def sample(self, times_ns: np.ndarray) -> np.ndarray:
        """Vectorized evaluation of a whole sample grid."""
        return np.interp(np.asarray(times_ns, dtype=float),
                         self.times_ns, self.values)

    def breakpoints(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(times, values)`` breakpoint export."""
        return self.times_ns, self.values


@dataclass(frozen=True)
class PiecewiseConstantSignal:
    """A right-continuous step signal built from breakpoints.

    The value recorded at ``t`` is in force from ``t`` onward (matching
    :meth:`repro.measure.trace.StepTrace.value_at`); queries before the
    first breakpoint return ``initial``.
    """

    times_ns: np.ndarray
    values: np.ndarray
    initial: float = 0.0
    name: str = "step"

    def __post_init__(self) -> None:
        times, values = _as_breakpoint_arrays(self.times_ns, self.values,
                                              self.name)
        object.__setattr__(self, "times_ns", times)
        object.__setattr__(self, "values", values)

    def sample(self, times_ns: np.ndarray,
               inclusive: bool = True) -> np.ndarray:
        """Vectorized evaluation via one binary search.

        ``inclusive`` keeps the right-continuous rule (a breakpoint at
        ``t`` is in force at ``t``); ``inclusive=False`` evaluates the
        left limit instead, which is what jump encoding needs.
        """
        side = "right" if inclusive else "left"
        idx = np.searchsorted(self.times_ns,
                              np.asarray(times_ns, dtype=float), side=side) - 1
        clipped = np.maximum(idx, 0)
        out = self.values[clipped]
        return np.where(idx >= 0, out, self.initial)

    def breakpoints(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(times, values)`` breakpoint export."""
        return self.times_ns, self.values
