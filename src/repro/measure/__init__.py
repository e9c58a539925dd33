"""Measurement infrastructure: traces and the simulated NI-DAQ.

Stands in for the paper's National Instruments PCIe-6376 acquisition card
(Section 5.1): the simulated DAQ samples the rail voltage and the derived
supply current at up to 3.5 MS/s, producing the time series behind
Figures 6, 7 and 9.
"""

from repro.measure.trace import SampleSeries, StepTrace
from repro import lazy_exports

#: Exports off the covert-transfer path: name -> defining submodule.
_LAZY = {
    "DAQCard": "daq",
    "DAQSpec": "daq",
    "sample_grid": "daq",
    "PiecewiseConstantSignal": "sampler",
    "PiecewiseLinearSignal": "sampler",
    "TraceSampler": "sampler",
}
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)

__all__ = [
    "SampleSeries",
    "StepTrace",
    "DAQCard",
    "DAQSpec",
    "sample_grid",
    "PiecewiseConstantSignal",
    "PiecewiseLinearSignal",
    "TraceSampler",
]
