"""Measurement infrastructure: traces, simulated NI-DAQ, statistics.

Stands in for the paper's National Instruments PCIe-6376 acquisition card
(Section 5.1): the simulated DAQ samples the rail voltage and the derived
supply current at up to 3.5 MS/s, producing the time series behind
Figures 6, 7 and 9.
"""

from repro.measure.trace import SampleSeries, StepTrace
from repro.measure.daq import DAQCard, DAQSpec, sample_grid
from repro.measure.sampler import (
    PiecewiseConstantSignal,
    PiecewiseLinearSignal,
    TraceSampler,
)
from repro.measure.probe import (
    IterationTimings,
    ThrottleDetector,
    expected_iteration_tsc,
    measured_iterations,
)
from repro.measure.stats import (
    distribution_summary,
    histogram,
    level_separation,
    DistributionSummary,
)

__all__ = [
    "SampleSeries",
    "StepTrace",
    "DAQCard",
    "DAQSpec",
    "sample_grid",
    "PiecewiseConstantSignal",
    "PiecewiseLinearSignal",
    "TraceSampler",
    "IterationTimings",
    "ThrottleDetector",
    "expected_iteration_tsc",
    "measured_iterations",
    "distribution_summary",
    "histogram",
    "level_separation",
    "DistributionSummary",
]
