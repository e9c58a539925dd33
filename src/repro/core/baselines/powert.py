"""POWERT: covert channel over power-budget management (Khatamifard et al. [59]).

POWERT signals through the processor's *power-limit* machinery: a sender
burning power pushes the package over its sustained budget, a RAPL-style
controller reacts by lowering the shared frequency, and a receiver times
a loop to observe it.  The control loop averages power over milliseconds
(PL1/EWMA), so the channel's bit period is ~8 ms (~122 bit/s reported),
still 24x slower than IChannels.

The budget controller is implemented here as a real simulation process
(EWMA of the package power, stepped frequency requests), so the
frequency dips the receiver decodes are emergent.
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


class PowerBudgetController:
    """RAPL-style PL1 controller: EWMA power -> stepped frequency requests."""

    def __init__(self, system: System, pl1_watts: float,
                 control_interval_ms: float = 0.5, ewma_alpha: float = 0.25,
                 step_ghz: float = 0.2, low_band: float = 0.7) -> None:
        if pl1_watts <= 0:
            raise ConfigError(f"PL1 must be positive, got {pl1_watts}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ConfigError(f"EWMA alpha must be in (0, 1], got {ewma_alpha}")
        self.system = system
        self.pl1_watts = pl1_watts
        self.interval_ns = ms_to_ns(control_interval_ms)
        self.alpha = ewma_alpha
        self.step_ghz = step_ghz
        self.low_band = low_band
        self.ewma_watts = 0.0
        self.max_ghz = system.config.max_turbo_ghz
        self.min_ghz = system.config.min_freq_ghz
        self._target_ghz = system.pmu.requested_freq_ghz

    def process(self, horizon_ns: float) -> Generator:
        """The controller as a simulation program."""
        system = self.system
        while system.now < horizon_ns:
            yield system.sleep(self.interval_ns)
            power = system.power_at(system.now)
            self.ewma_watts = self.alpha * power + (1 - self.alpha) * self.ewma_watts
            if self.ewma_watts > self.pl1_watts and self._target_ghz > self.min_ghz:
                self._target_ghz = max(self.min_ghz,
                                       self._target_ghz - self.step_ghz)
                system.pmu.set_requested_freq(self._target_ghz)
            elif (self.ewma_watts < self.low_band * self.pl1_watts
                  and self._target_ghz < self.max_ghz):
                self._target_ghz = min(self.max_ghz,
                                       self._target_ghz + self.step_ghz)
                system.pmu.set_requested_freq(self._target_ghz)
        return None


class PowerT(BaselineChannel):
    """Cross-core channel over power-limit frequency throttling."""

    name = "POWERT"

    def __init__(self, system: System, sender_core: int = 0,
                 receiver_core: int = 1, bit_period_ms: float = 8.2,
                 pl1_watts: float = 7.0, probe_iterations: int = 40,
                 training_rounds: int = 3, min_gap_tsc: float = 200.0) -> None:
        if system.config.n_cores < 2:
            raise ConfigError("POWERT needs at least two cores")
        if sender_core == receiver_core:
            raise ConfigError("sender and receiver must use different cores")
        self.system = system
        self.sender_thread = system.thread_on(sender_core, 0)
        self.receiver_thread = system.thread_on(receiver_core, 0)
        self.slot_ns = ms_to_ns(bit_period_ms)
        self.controller = PowerBudgetController(system, pl1_watts)
        self.probe_loop = Loop(IClass.SCALAR_64, probe_iterations)
        self.training_rounds = training_rounds
        self.min_gap_tsc = min_gap_tsc
        self._controller_running_until = 0.0
        burst_us = 300.0
        self.burn_loop = Loop(
            IClass.HEAVY_256,
            max(1, int(burst_us * system.config.base_freq_ghz * 1_000 / 300)),
        )

    def _ensure_controller(self, horizon_ns: float) -> None:
        """Run the RAPL controller until at least ``horizon_ns``."""
        if horizon_ns <= self._controller_running_until:
            return
        self.system.spawn(self.controller.process(horizon_ns),
                          name="rapl_controller")
        self._controller_running_until = horizon_ns

    def _sender_program(self, schedule: SlotSchedule,
                        bits: Sequence[int]) -> Generator:
        """Burn power in each slot whose bit is 1."""
        system = self.system
        for i, bit in enumerate(bits):
            yield system.until(schedule.slot_start(i))
            if not bit:
                continue
            # Burn power for 70% of the slot so the EWMA trips PL1.
            active_until = schedule.slot_start(i) + 0.7 * self.slot_ns
            while system.now < active_until:
                yield system.execute(self.sender_thread, self.burn_loop)
        return None

    def _receiver_program(self, schedule: SlotSchedule, n_bits: int,
                          measurements: List[Optional[float]]) -> Generator:
        """Probe each slot 60% in, once the power cap has acted."""
        system = self.system
        for i in range(n_bits):
            yield system.until(schedule.slot_start(i) + 0.6 * self.slot_ns)
            result = yield system.execute(self.receiver_thread, self.probe_loop)
            measurements[i] = float(result.elapsed_tsc)
        return None

    def _spawn(self, schedule: SlotSchedule, bits: List[int],
               measurements: List[Optional[float]]) -> None:
        """Start the budget controller, the power burner and the receiver."""
        self._ensure_controller(schedule.slot_start(len(bits)) + self.slot_ns)
        self.system.spawn(self._sender_program(schedule, bits),
                          name="powert_sender")
        self.system.spawn(
            self._receiver_program(schedule, len(bits), measurements),
            name="powert_receiver",
        )
