"""TurboCC: cross-core covert channel over turbo frequency changes [57].

Kalmbach et al. signal by executing AVX2 on the sender core while the
package runs at turbo frequency: the turbo license (LVL1) caps the
all-core frequency, which the receiver detects by timing a scalar loop
on *its* core (the clock domain is shared).  The paper's critique,
reproduced here:

* the effect needs **turbo** operation — at or below base frequency the
  license never binds and the channel is silent (tested in
  ``tests/test_baselines.py``);
* frequency modulation is *slow*: the license and turbo-budget machinery
  reacts over many milliseconds, so TurboCC's practical bit period is
  ~16 ms (61 bit/s reported) versus IChannels' ~0.7 ms transactions.

The simulator's license mechanics respond faster than real turbo-budget
firmware, so the bit period here is an input parameter documented from
the TurboCC paper rather than an emergent quantity; the *mechanism*
(license-capped shared clock observed across cores) is fully modelled.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence

from repro.core.baselines.base import BaselineChannel
from repro.core.sync import SlotSchedule
from repro.errors import ConfigError
from repro.isa.instructions import IClass
from repro.isa.workload import Loop
from repro.soc.system import System
from repro.units import ms_to_ns


class TurboCC(BaselineChannel):
    """Cross-core frequency-modulation channel at turbo frequencies."""

    name = "TurboCC"

    def __init__(self, system: System, sender_core: int = 0,
                 receiver_core: int = 1, bit_period_ms: float = 16.4,
                 duty: float = 0.6, probe_iterations: int = 40,
                 training_rounds: int = 3, min_gap_tsc: float = 200.0) -> None:
        if system.config.n_cores < 2:
            raise ConfigError("TurboCC needs at least two cores")
        if sender_core == receiver_core:
            raise ConfigError("sender and receiver must use different cores")
        if not 0.0 < duty < 1.0:
            raise ConfigError(f"duty must be in (0, 1), got {duty}")
        self.system = system
        self.sender_thread = system.thread_on(sender_core, 0)
        self.receiver_thread = system.thread_on(receiver_core, 0)
        self.slot_ns = ms_to_ns(bit_period_ms)
        self.duty = duty
        self.probe_loop = Loop(IClass.SCALAR_64, probe_iterations)
        self.training_rounds = training_rounds
        self.min_gap_tsc = min_gap_tsc
        burst_us = 200.0
        self.burst_loop = Loop(
            IClass.HEAVY_256,
            max(1, int(burst_us * system.config.base_freq_ghz * 1_000
                       / Loop(IClass.HEAVY_256, 1).block_instructions)),
        )

    def _sender_program(self, schedule: SlotSchedule,
                        bits: Sequence[int]) -> Generator:
        """Hold the AVX license for the duty window of each 1 bit."""
        system = self.system
        for i, bit in enumerate(bits):
            yield system.until(schedule.slot_start(i))
            if not bit:
                continue
            # Keep the LVL1 license engaged for the duty window by
            # back-to-back AVX2 bursts; then go quiet so the license
            # (and the frequency) recovers before the next slot.
            active_until = schedule.slot_start(i) + self.duty * self.slot_ns
            while system.now < active_until:
                yield system.execute(self.sender_thread, self.burst_loop)
        return None

    def _receiver_program(self, schedule: SlotSchedule, n_bits: int,
                          measurements: List[Optional[float]]) -> Generator:
        """Probe each slot mid-way through the duty window."""
        system = self.system
        for i in range(n_bits):
            # Probe mid-way through the duty window, when the license cap
            # is stable.
            yield system.until(schedule.slot_start(i) + 0.5 * self.duty * self.slot_ns)
            result = yield system.execute(self.receiver_thread, self.probe_loop)
            measurements[i] = float(result.elapsed_tsc)
        return None

    def _spawn(self, schedule: SlotSchedule, bits: List[int],
               measurements: List[Optional[float]]) -> None:
        """Start the license-holding sender and the receiver."""
        self.system.spawn(self._sender_program(schedule, bits),
                          name="turbocc_sender")
        self.system.spawn(
            self._receiver_program(schedule, len(bits), measurements),
            name="turbocc_receiver",
        )
