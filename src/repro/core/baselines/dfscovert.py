"""DFScovert: governor-driven frequency modulation (Alagappan et al. [5]).

A privileged Trojan toggles the cpufreq governor's requested frequency
between the package minimum and maximum; a spy process on another core
observes the shared clock domain by timing a scalar loop.  Linux
governor writes take effect only at the cpufreq sampling granularity
(tens of milliseconds), which is why DFScovert's reported throughput is
~20 bit/s — two orders of magnitude below IChannels.

Here the governor-write latency is modelled explicitly
(``governor_latency_ms``), and the rest of the pipeline (PLL relock,
V/F retargeting, receiver timing) runs through the simulator.
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


class DFSCovert(BaselineChannel):
    """Cross-core channel over governor frequency writes."""

    name = "DFScovert"

    def __init__(self, system: System, receiver_core: int = 1,
                 bit_period_ms: float = 50.0, governor_latency_ms: float = 10.0,
                 probe_iterations: int = 40, training_rounds: int = 3,
                 min_gap_tsc: float = 200.0) -> None:
        if system.config.n_cores < 2:
            raise ConfigError("DFScovert needs at least two cores")
        self.system = system
        self.receiver_thread = system.thread_on(receiver_core, 0)
        self.slot_ns = ms_to_ns(bit_period_ms)
        self.governor_latency_ns = ms_to_ns(governor_latency_ms)
        self.low_ghz = system.config.min_freq_ghz
        self.high_ghz = system.config.max_turbo_ghz
        self.probe_loop = Loop(IClass.SCALAR_64, probe_iterations)
        self.training_rounds = training_rounds
        self.min_gap_tsc = min_gap_tsc

    def _sender_program(self, schedule: SlotSchedule,
                        bits: Sequence[int]) -> Generator:
        """Set the governor frequency for each bit."""
        system = self.system
        for i, bit in enumerate(bits):
            yield system.until(schedule.slot_start(i))
            # The governor write lands after the cpufreq sampling delay.
            yield system.sleep(self.governor_latency_ns)
            target = self.low_ghz if bit else self.high_ghz
            system.pmu.set_requested_freq(target)
        # Leave the package at full speed after the last bit.
        yield system.until(schedule.slot_start(len(bits)))
        system.pmu.set_requested_freq(self.high_ghz)
        return None

    def _receiver_program(self, schedule: SlotSchedule, n_bits: int,
                          measurements: List[Optional[float]]) -> Generator:
        """Probe each slot after the frequency settles."""
        system = self.system
        for i in range(n_bits):
            yield system.until(schedule.slot_start(i) + 0.6 * self.slot_ns)
            result = yield system.execute(self.receiver_thread, self.probe_loop)
            measurements[i] = float(result.elapsed_tsc)
        return None

    def _spawn(self, schedule: SlotSchedule, bits: List[int],
               measurements: List[Optional[float]]) -> None:
        """Start the governor writer and the receiver."""
        self.system.spawn(self._sender_program(schedule, bits),
                          name="dfscovert_sender")
        self.system.spawn(
            self._receiver_program(schedule, len(bits), measurements),
            name="dfscovert_receiver",
        )
