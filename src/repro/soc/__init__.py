"""SoC integration: event engine, hardware threads, system model, noise.

This package glues the substrates together into a simulated processor:
cores with SMT hardware threads execute instruction loops; the central PMU
mediates voltage/frequency transitions over the PDN; noise processes model
interrupts, context switches and concurrent applications.
"""

from repro.soc.engine import Engine, EventHandle
from repro.soc.config import (
    ProcessorConfig,
    amd_zen2_like,
    cannon_lake_i3_8121u,
    coffee_lake_i7_9700k,
    haswell_i7_4770k,
    preset,
    PRESETS,
    sandy_bridge_i7_2600k,
    skylake_sp_xeon_8160,
)
from repro.soc.system import ExecResult, System
from repro import lazy_exports

#: Exports off the covert-transfer path: name -> defining submodule.
_LAZY = {
    "ChannelFeasibility": "feasibility",
    "FeasibilityReport": "feasibility",
    "analyze_feasibility": "feasibility.analyze",
    "NoiseConfig": "noise",
    "attach_system_noise": "noise",
}
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)

__all__ = [
    "Engine",
    "EventHandle",
    "ProcessorConfig",
    "amd_zen2_like",
    "cannon_lake_i3_8121u",
    "coffee_lake_i7_9700k",
    "haswell_i7_4770k",
    "preset",
    "PRESETS",
    "sandy_bridge_i7_2600k",
    "skylake_sp_xeon_8160",
    "ChannelFeasibility",
    "FeasibilityReport",
    "analyze_feasibility",
    "ExecResult",
    "System",
    "NoiseConfig",
    "attach_system_noise",
]
