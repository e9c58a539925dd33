"""Shared report type and transfer loop for baseline covert channels."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.calibration import Calibrator
from repro.core.sync import SlotSchedule
from repro.errors import ProtocolError
from repro.soc.system import System
from repro.units import bits_per_second


@dataclass
class BaselineReport:
    """Outcome of a baseline channel transfer (one bit per transaction)."""

    name: str
    bits_sent: List[int]
    bits_received: List[int]
    start_ns: float
    end_ns: float

    @property
    def bits(self) -> int:
        """Number of payload bits transferred."""
        return len(self.bits_sent)

    @property
    def bit_errors(self) -> int:
        """Wrong bits between sent and received streams."""
        return sum(1 for a, b in zip(self.bits_sent, self.bits_received) if a != b)

    @property
    def ber(self) -> float:
        """Bit error rate."""
        if not self.bits_sent:
            return 0.0
        return self.bit_errors / len(self.bits_sent)

    @property
    def elapsed_ns(self) -> float:
        """Wall time of the transfer."""
        return self.end_ns - self.start_ns

    @property
    def throughput_bps(self) -> float:
        """Realised throughput in bit/s."""
        return bits_per_second(self.bits, self.elapsed_ns)


class BaselineChannel:
    """A one-bit-per-slot baseline: slot loop, calibration and transfer.

    A subclass sets ``system``, ``slot_ns``, ``training_rounds`` and
    ``min_gap_tsc`` and implements :meth:`_spawn`, which starts its
    programs for one bit stream; each program records every slot's probe
    duration into ``measurements``.
    """

    name = ""
    system: System
    slot_ns: float
    training_rounds: int
    min_gap_tsc: float
    _calibrator: Optional[Calibrator] = None

    def _spawn(self, schedule: SlotSchedule, bits: List[int],
               measurements: List[Optional[float]]) -> None:
        """Start the programs that send ``bits`` on ``schedule``."""
        raise NotImplementedError

    def _run_bits(self, bits: Sequence[int]) -> List[float]:
        """Send ``bits`` and return each slot's probe duration."""
        if not bits:
            raise ProtocolError("bit stream is empty")
        if any(bit not in (0, 1) for bit in bits):
            raise ProtocolError("bits must be 0 or 1")
        schedule = SlotSchedule(self.system.now + self.slot_ns, self.slot_ns)
        measurements: List[Optional[float]] = [None] * len(bits)
        self._spawn(schedule, list(bits), measurements)
        self.system.run_until(schedule.slot_start(len(bits)) + self.slot_ns)
        if any(m is None for m in measurements):
            raise ProtocolError("receiver missed some slots")
        return [float(m) for m in measurements]

    def calibrate(self) -> Calibrator:
        """Train the two-level decoder on alternating training bits."""
        training = [0, 1] * self.training_rounds
        readings = self._run_bits(training)
        self._calibrator = Calibrator(list(zip(training, readings)),
                                      min_gap=self.min_gap_tsc)
        return self._calibrator

    def transfer_bits(self, bits: Sequence[int]) -> BaselineReport:
        """Send a bit stream, calibrating first if needed."""
        if self._calibrator is None:
            self.calibrate()
        assert self._calibrator is not None
        start = self.system.now
        decoded = self._calibrator.decode_all(self._run_bits(bits))
        return BaselineReport(name=self.name, bits_sent=list(bits),
                              bits_received=decoded, start_ns=start,
                              end_ns=self.system.now)
