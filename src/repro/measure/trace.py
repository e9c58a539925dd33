"""Time-series containers for simulation observables.

Two shapes cover everything the simulator records:

* :class:`StepTrace` — piecewise-constant signals (frequency, per-core
  throttle state, activity class, power draw).  Records (time, value)
  breakpoints; lookups return the value in force at a time.
* :class:`SampleSeries` — uniformly sampled signals, as produced by the
  simulated DAQ card.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Generic, List, Sequence, Tuple, TypeVar

import numpy as np

from repro.errors import MeasurementError
from repro.measure.sampler import PiecewiseConstantSignal

T = TypeVar("T")


@dataclass
class StepTrace(Generic[T]):
    """A piecewise-constant signal recorded as breakpoints.

    ``record`` may be called with non-decreasing timestamps; recording a
    new value at an existing timestamp overwrites the breakpoint (last
    writer wins, which matches how state settles within one event).
    """

    name: str = "signal"
    _times: List[float] = field(default_factory=list)
    _values: List[T] = field(default_factory=list)

    def record(self, t_ns: float, value: T) -> bool:
        """Set the signal to ``value`` from ``t_ns`` onward.

        Returns whether the value in force from ``t_ns`` changed, so a
        caller can update what depends on it only then.  Re-recording
        the last value is the common case and returns before any other
        check, keeping the trace compact.
        """
        values = self._values
        if values and values[-1] == value:
            return False
        times = self._times
        if times:
            last = times[-1]
            if t_ns < last - 1e-9:
                raise MeasurementError(
                    f"{self.name}: record at t={t_ns} before last t={last}"
                )
            if abs(t_ns - last) <= 1e-9:
                values[-1] = value
                return True
        times.append(t_ns)
        values.append(value)
        return True

    def value_at(self, t_ns: float, default: T = None) -> T:  # type: ignore[assignment]
        """Value in force at ``t_ns`` (``default`` before the first record)."""
        idx = bisect.bisect_right(self._times, t_ns) - 1
        if idx < 0:
            return default
        return self._values[idx]

    def values_at(self, times_ns: np.ndarray, default: float = 0.0) -> np.ndarray:
        """Vectorized :meth:`value_at` for numeric traces.

        One ``np.searchsorted`` over the whole grid instead of one
        binary search per sample; same right-continuous semantics.
        """
        return self.signal(default=default).sample(times_ns)

    def signal(self, default: float = 0.0) -> "PiecewiseConstantSignal":
        """A vectorizable signal-source view of a numeric step trace.

        The returned object snapshots the current breakpoints; records
        made afterwards are not reflected.  ``default`` is the value
        reported before the first breakpoint.
        """
        if not self._times:
            return PiecewiseConstantSignal(
                np.asarray([0.0]), np.asarray([default], dtype=float),
                initial=default, name=self.name,
            )
        return PiecewiseConstantSignal(
            np.asarray(self._times, dtype=float),
            np.asarray(self._values, dtype=float),
            initial=default, name=self.name,
        )

    def breakpoints(self) -> List[Tuple[float, T]]:
        """All (time, value) breakpoints in order."""
        return list(zip(self._times, self._values))

    def __len__(self) -> int:
        return len(self._times)

    def changes_in(self, t0_ns: float, t1_ns: float) -> List[Tuple[float, T]]:
        """Breakpoints with t0 <= t < t1."""
        lo = bisect.bisect_left(self._times, t0_ns)
        hi = bisect.bisect_left(self._times, t1_ns)
        return list(zip(self._times[lo:hi], self._values[lo:hi]))

    def time_weighted_mean(self, t0_ns: float, t1_ns: float) -> float:
        """Time-weighted mean of a numeric step trace over [t0, t1]."""
        if t1_ns <= t0_ns:
            raise MeasurementError(f"empty interval [{t0_ns}, {t1_ns}]")
        total = 0.0
        current = self.value_at(t0_ns, default=0.0)  # type: ignore[arg-type]
        last = t0_ns
        for t, value in self.changes_in(t0_ns, t1_ns):
            if t > last:
                total += float(current) * (t - last)
                last = t
            current = value
        total += float(current) * (t1_ns - last)
        return total / (t1_ns - t0_ns)


@dataclass
class SampleSeries:
    """A uniformly sampled signal (what a DAQ card returns)."""

    times_ns: np.ndarray
    values: np.ndarray
    name: str = "samples"

    def __post_init__(self) -> None:
        if len(self.times_ns) != len(self.values):
            raise MeasurementError(
                f"{self.name}: {len(self.times_ns)} timestamps vs "
                f"{len(self.values)} values"
            )

    def __len__(self) -> int:
        return len(self.times_ns)

    @property
    def duration_ns(self) -> float:
        """Span between first and last sample."""
        if len(self.times_ns) < 2:
            return 0.0
        return float(self.times_ns[-1] - self.times_ns[0])

    def mean(self) -> float:
        """Arithmetic mean of the samples."""
        if len(self.values) == 0:
            raise MeasurementError(f"{self.name}: no samples")
        return float(np.mean(self.values))

    def minmax(self) -> Tuple[float, float]:
        """(min, max) of the samples."""
        if len(self.values) == 0:
            raise MeasurementError(f"{self.name}: no samples")
        return float(np.min(self.values)), float(np.max(self.values))

    def delta_from_start(self) -> "SampleSeries":
        """Series re-based to its first sample (Figure 6 plots Vcc delta)."""
        if len(self.values) == 0:
            raise MeasurementError(f"{self.name}: no samples")
        return SampleSeries(self.times_ns, self.values - self.values[0],
                            name=f"{self.name}_delta")

    def window(self, t0_ns: float, t1_ns: float) -> "SampleSeries":
        """Samples with t0 <= t <= t1."""
        mask = (self.times_ns >= t0_ns) & (self.times_ns <= t1_ns)
        return SampleSeries(self.times_ns[mask], self.values[mask], name=self.name)

    def fingerprint(self) -> dict:
        """A compact, digest-ready summary of the series.

        Large sampled grids are reduced to shape plus exact content
        hashes and a handful of derived scalars, so the golden-trace
        harness (:mod:`repro.verify`) can pin a multi-thousand-sample
        DAQ capture without committing megabytes of floats: any change
        to any sample changes ``values_sha256``, while the scalar
        fields make a mismatch humanly readable.
        """
        import hashlib

        def _sha(arr: np.ndarray) -> str:
            return hashlib.sha256(
                np.ascontiguousarray(arr, dtype="<f8").tobytes()).hexdigest()

        values = np.asarray(self.values, dtype=float)
        out = {
            "name": self.name,
            "samples": int(len(self)),
            "times_sha256": _sha(np.asarray(self.times_ns, dtype=float)),
            "values_sha256": _sha(values),
        }
        if len(self):
            out.update(
                first=float(values[0]), last=float(values[-1]),
                min=float(values.min()), max=float(values.max()),
                mean=float(values.mean()),
            )
        return out


def merge_step_traces(traces: Sequence[StepTrace], t0_ns: float,
                      t1_ns: float) -> List[float]:
    """Sorted union of breakpoint times of several traces within a span."""
    times = {t0_ns, t1_ns}
    for trace in traces:
        for t, _ in trace.changes_in(t0_ns, t1_ns):
            times.add(t)
    return sorted(times)
