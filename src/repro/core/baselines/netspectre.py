"""NetSpectre's AVX covert-channel gadget (Schwarz et al. [91]).

The gadget encodes **one bit per transaction** in whether an AVX2
instruction was recently executed on the same hardware thread: for a 1
the leak gadget runs an AVX2 loop, for a 0 it stays idle; the receiver
then times its own AVX2 instruction — fast when the rail is already
ramped (bit 1), slow when the probe pays the full throttling period
(bit 0).

The paper's comparison (Figure 12a, Section 6.2) is against this gadget,
not the end-to-end network attack.  Its limitations versus
IccThreadCovert, demonstrated by running both on the same simulator:

* single-level signalling — one bit per transaction where the
  multi-level TP carries two, hence half the throughput;
* same-hardware-thread only.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence

from repro.core.baselines.base import BaselineChannel
from repro.core.sync import SlotSchedule
from repro.isa.instructions import IClass
from repro.isa.workload import Loop
from repro.soc.system import System
from repro.units import us_to_ns


class NetSpectreGadget(BaselineChannel):
    """Same-thread, single-level (1 bit/transaction) covert channel."""

    name = "NetSpectre"

    def __init__(self, system: System, core: int = 0, slot_us: float = 750.0,
                 send_iterations: int = 30, probe_iterations: int = 40,
                 training_rounds: int = 4, min_gap_tsc: float = 200.0) -> None:
        self.system = system
        self.thread_id = system.thread_on(core, 0)
        self.slot_ns = us_to_ns(slot_us)
        self.send_loop = Loop(IClass.HEAVY_256, send_iterations)
        self.probe_loop = Loop(IClass.HEAVY_256, probe_iterations)
        self.training_rounds = training_rounds
        self.min_gap_tsc = min_gap_tsc

    def _program(self, schedule: SlotSchedule, bits: Sequence[int],
                 measurements: List[Optional[float]]) -> Generator:
        """Send then probe each bit on the one thread."""
        system = self.system
        for i, bit in enumerate(bits):
            yield system.until(schedule.slot_start(i))
            if bit:
                # Leak gadget executed: warms the rail to the AVX2 level.
                yield system.execute(self.thread_id, self.send_loop)
            result = yield system.execute(self.thread_id, self.probe_loop)
            measurements[i] = float(result.elapsed_tsc)
        return None

    def _spawn(self, schedule: SlotSchedule, bits: List[int],
               measurements: List[Optional[float]]) -> None:
        """Start the gadget, which sends and probes on one thread."""
        self.system.spawn(self._program(schedule, bits, measurements),
                          name="netspectre_gadget")
