"""IccThreadCovert: covert channel within one hardware thread (Section 4.1).

Sender and receiver are two software contexts sharing the same hardware
thread — e.g. a victim gadget and attacker code in one process, as in
NetSpectre's setting.  The sender's PHI loop ramps the rail part-way to
its level's guardband; the receiver then runs the *heaviest* probe loop
(512b_Heavy where available) and measures how much ramp remains: the
higher the sender's level, the *shorter* the probe's throttling period
(Figure 4a).
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence

from repro.core.channel import ChannelConfig, CovertChannel
from repro.core.levels import ChannelLocation
from repro.core.sync import SlotSchedule
from repro.errors import ConfigError
from repro.soc.system import System


class IccThreadCovert(CovertChannel):
    """Same-hardware-thread covert channel."""

    location = ChannelLocation.SAME_THREAD

    def __init__(self, system: System, config: ChannelConfig = ChannelConfig(),
                 core: int = 0, smt_slot: int = 0) -> None:
        super().__init__(system, config)
        if not 0 <= core < system.config.n_cores:
            raise ConfigError(f"no such core: {core}")
        self.thread_id = system.thread_on(core, smt_slot)

    def _program(self, schedule: SlotSchedule, symbols: Sequence[int],
                 measurements: List[Optional[float]]) -> Generator:
        """Send then probe each symbol on the one thread."""
        system = self.system
        for i, symbol in enumerate(symbols):
            yield system.until(schedule.slot_start(i))
            # Sender context: PHI loop at the level encoding the bits.
            yield system.execute(self.thread_id, self.sender_loop(symbol))
            # Receiver context (same thread): probe at the heaviest level
            # and time it with rdtsc.
            result = yield system.execute(self.thread_id, self.probe_loop())
            measurements[i] = float(result.elapsed_tsc)
        return None

    def _spawn_transaction_programs(self, schedule: SlotSchedule,
                                    symbols: Sequence[int],
                                    measurements: List[Optional[float]]) -> None:
        """Spawn the single sender-receiver program."""
        # Sender and receiver share the hardware thread, so scheduling
        # faults delay the single program as one party.
        self.system.spawn(
            self._program(self.party_schedule(schedule, "sender"),
                          symbols, measurements),
            name="icc_thread_covert")
