"""Simulated National Instruments data-acquisition card.

The paper measures rail voltage and current with an NI PCIe-6376 card
(3.5 MS/s, 99.94 % accuracy) wired to the VR output and motherboard sense
resistors (Section 5.1, Figure 5).  The simulated card samples arbitrary
signal callables at a configured rate and can add the instrument's small
gain error and noise floor so downstream analysis code faces realistic
data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import MeasurementError, bounded, check_fields
from repro.measure.sampler import SignalLike, TraceSampler
from repro.measure.trace import SampleSeries
from repro.units import NS_PER_S


def sample_grid(t0_ns: float, t1_ns: float, rate_hz: float) -> np.ndarray:
    """The exact uniform sample grid covering [t0, t1] at ``rate_hz``.

    Every sample is ``t0 + k * period`` with the number of whole periods
    chosen so the last sample never lands past ``t1`` — the naive
    ``int(span / period) + 1`` count is off by one whenever the float
    ratio rounds up across an integer (awkward rates over long spans).
    """
    if rate_hz <= 0:
        raise MeasurementError(f"sample rate must be positive, got {rate_hz}")
    if t1_ns <= t0_ns:
        raise MeasurementError(f"empty sampling window [{t0_ns}, {t1_ns}]")
    period_ns = NS_PER_S / rate_hz
    span = t1_ns - t0_ns
    n_periods = int(span / period_ns)
    # Repair the float division against the exact (float-multiply) grid.
    while n_periods > 0 and n_periods * period_ns > span:
        n_periods -= 1
    while (n_periods + 1) * period_ns <= span:
        n_periods += 1
    times = t0_ns + np.arange(n_periods + 1) * period_ns
    if times[-1] > t1_ns:  # t0 + k*period may round up half an ulp past t1
        times[-1] = t1_ns
    return times


@dataclass(frozen=True)
class DAQSpec:
    """Instrument parameters (defaults model the NI PCIe-6376).

    Parameters
    ----------
    max_sample_rate_hz:
        Upper bound on the sampling rate (3.5 MS/s for the PCIe-6376).
    accuracy:
        Multiplicative accuracy (0.9994 -> 99.94 %); the gain error is
        drawn once per channel, as calibration error would be.
    noise_rms:
        Additive Gaussian noise per sample, in signal units.
    """

    max_sample_rate_hz: float = bounded(3.5e6, gt=0)
    accuracy: float = bounded(0.9994, gt=0, le=1)
    noise_rms: float = bounded(0.0, ge=0)

    def __post_init__(self) -> None:
        check_fields(self, MeasurementError)


class DAQCard:
    """Samples signal callables (or signal sources) over a time span."""

    def __init__(self, spec: DAQSpec = DAQSpec(), seed: int = 6376,
                 faults: Optional[object] = None) -> None:
        #: Optional fault injector whose measurement models corrupt the
        #: sampled series (see :meth:`repro.faults.FaultInjector.attach_daq`).
        #: Duck-typed — anything with ``perturb_samples(name, times,
        #: values)`` — so this layer never imports the fault layer above.
        self.faults = faults
        self.spec = spec
        self._rng = np.random.default_rng(seed)
        self.sampler = TraceSampler()

    def sample(self, signal: SignalLike, t0_ns: float,
               t1_ns: float, sample_rate_hz: Optional[float] = None,
               name: str = "channel") -> SampleSeries:
        """Sample ``signal`` uniformly over [t0, t1].

        ``sample_rate_hz`` defaults to the instrument maximum and may not
        exceed it.  ``signal`` is either a scalar callable (sampled one
        grid point at a time — the documented fallback) or a signal
        source with a vectorized ``sample(times)`` method such as
        :meth:`repro.soc.system.System.vcc_signal`, which evaluates the
        whole grid in one call; the two paths agree to float rounding.
        """
        rate = sample_rate_hz if sample_rate_hz is not None else self.spec.max_sample_rate_hz
        if rate > self.spec.max_sample_rate_hz + 1e-9:
            raise MeasurementError(
                f"sample rate {rate} Hz exceeds instrument maximum "
                f"{self.spec.max_sample_rate_hz} Hz"
            )
        times = sample_grid(t0_ns, t1_ns, rate)
        values = self.sampler.evaluate(signal, times)
        gain = 1.0 + (1.0 - self.spec.accuracy) * float(self._rng.normal())
        values = values * gain
        if self.spec.noise_rms > 0:
            values = values + self._rng.normal(0.0, self.spec.noise_rms,
                                               len(times))
        if self.faults is not None:
            values = self.faults.perturb_samples(name, times, values)
        return SampleSeries(times, values, name=name)
