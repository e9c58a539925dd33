"""IChannels: covert channels over current-management throttling.

The paper's contribution (Section 4): three covert channels that encode
two bits per transaction in the computational-intensity level of a PHI
loop, decoded by measuring multi-level throttling periods with ``rdtsc``.

* :class:`IccThreadCovert` — sender and receiver share one hardware
  thread (Multi-Throttling-Thread).
* :class:`IccSMTcovert` — sender and receiver on co-located SMT threads
  (Multi-Throttling-SMT).
* :class:`IccCoresCovert` — sender and receiver on different physical
  cores (Multi-Throttling-Cores).
"""

from repro.core.levels import (
    ChannelLocation,
    ROBUST_SYMBOLS,
    SYMBOL_BITS,
    SYMBOL_CLASSES,
    PROBE_CLASSES,
    symbol_for_class,
)
from repro.core.encoding import bits_to_bytes, bytes_to_bits, bytes_to_symbols, symbols_to_bytes
from repro.core.calibration import Calibrator, LevelStats
from repro.core.sync import JitteredSchedule, PerturbedSchedule, SlotSchedule
from repro.core.channel import ChannelConfig, CovertChannel, TransferReport
from repro.core.thread_channel import IccThreadCovert
from repro.core.smt_channel import IccSMTcovert
from repro.core.cores_channel import IccCoresCovert
from repro import lazy_exports

#: Exports off the covert-transfer path: name -> defining submodule.
_LAZY = {
    "AdaptiveConfig": "session",
    "CovertSession": "session",
    "FecScheme": "session",
    "SessionConfig": "session",
    "SessionReport": "session",
    "binary_symmetric_capacity": "capacity",
    "effective_throughput_bps": "capacity",
    "symbol_channel_capacity_bps": "capacity",
    "CRC8": "ecc",
    "Hamming74": "ecc",
    "RepetitionCode": "ecc",
    "InstructionClassSpy": "side_channel",
    "KeyDependentVictim": "side_channel",
    "SpyReport": "side_channel",
}
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)

__all__ = [
    "AdaptiveConfig",
    "ChannelLocation",
    "JitteredSchedule",
    "PerturbedSchedule",
    "ROBUST_SYMBOLS",
    "SYMBOL_BITS",
    "SYMBOL_CLASSES",
    "PROBE_CLASSES",
    "symbol_for_class",
    "bits_to_bytes",
    "bytes_to_bits",
    "bytes_to_symbols",
    "symbols_to_bytes",
    "Calibrator",
    "LevelStats",
    "SlotSchedule",
    "ChannelConfig",
    "CovertChannel",
    "TransferReport",
    "IccThreadCovert",
    "IccSMTcovert",
    "IccCoresCovert",
    "CovertSession",
    "FecScheme",
    "SessionConfig",
    "SessionReport",
    "binary_symmetric_capacity",
    "effective_throughput_bps",
    "symbol_channel_capacity_bps",
    "CRC8",
    "Hamming74",
    "RepetitionCode",
    "InstructionClassSpy",
    "KeyDependentVictim",
    "SpyReport",
]
