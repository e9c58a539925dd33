"""Structured observability: tracing + metrics for every simulator layer.

The simulator's covert-channel behaviours are emergent, so debugging a
failed transfer or chasing a perf regression needs a record of what the
engine, regulator, PMU, channel, session and runner actually did.  This
package provides that record:

* a **tracer** (:mod:`repro.obs.tracer`) with a zero-overhead no-op
  default — spans and instant events on the simulation clock, wall-clock
  spans for runner/host work;
* a **metrics registry** (:mod:`repro.obs.metrics`) of counters and
  histograms (throttle residency, transition durations, retransmissions,
  cache hits, per-task wall time);
* **exporters** (:mod:`repro.obs.export`) to Chrome trace-event JSON
  (loadable in ``chrome://tracing`` / Perfetto) and flat metrics JSON.

Usage::

    from repro import System, cannon_lake_i3_8121u
    from repro.core import IccThreadCovert
    from repro.obs import tracing, write_chrome_trace, write_metrics_json

    with tracing() as tr:
        IccThreadCovert(System(cannon_lake_i3_8121u())).transfer(b"hi")
    write_chrome_trace(tr, "transfer-trace.json")
    write_metrics_json(tr, "transfer-metrics.json")

or from the command line: ``python -m repro --trace trace.json
--metrics metrics.json``.  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.tracer import (
    NullTracer,
    TraceEvent,
    Tracer,
    current,
    install,
    tracing,
)
from repro import lazy_exports

#: Exports off the covert-transfer path: name -> defining submodule.
_LAZY = {
    "chrome_trace_dict": "export",
    "chrome_trace_events": "export",
    "metrics_dict": "export",
    "metrics_fingerprint": "export",
    "validate_chrome_trace": "export",
    "write_chrome_trace": "export",
    "write_metrics_json": "export",
}
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "TraceEvent",
    "Tracer",
    "chrome_trace_dict",
    "chrome_trace_events",
    "current",
    "install",
    "metrics_dict",
    "metrics_fingerprint",
    "tracing",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_metrics_json",
]
