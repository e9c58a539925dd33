"""Core microarchitecture: IDQ delivery pipeline, PMCs and the TSC.

Models the front-end behaviour the paper characterises in Section 5.6:
the Instruction Decode Queue (IDQ) delivers up to four uops per cycle to
the back-end; while a current-management throttle is active, delivery is
blocked during three of every four cycles *for the whole core*, which is
why both SMT threads stall together (Key Conclusion 5).
"""

from repro.microarch.tsc import TimestampCounter
from repro import lazy_exports

#: Exports off the covert-transfer path: name -> defining submodule.
_LAZY = {
    "CounterBank": "counters",
    "PMC": "counters",
    "normalized_undelivered": "counters",
    "CorePipeline": "pipeline",
    "PipelineConfig": "pipeline",
    "ThreadState": "pipeline",
}
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)

__all__ = [
    "CounterBank",
    "PMC",
    "normalized_undelivered",
    "CorePipeline",
    "PipelineConfig",
    "ThreadState",
    "TimestampCounter",
]
