"""IccCoresCovert: covert channel across physical cores (Section 4.3).

All cores share one voltage regulator, and the central PMU serialises
voltage transitions: when the receiver's own PHI request arrives while
the sender's transition is in flight (within a few hundred cycles), the
receiver stays throttled until *both* transitions complete.  Its probe
time therefore grows with the sender's level (Figure 4c), even though
sender and receiver never share a core.
"""

from __future__ import annotations

from repro.core.channel import ChannelConfig, TwoThreadChannel
from repro.core.levels import ChannelLocation
from repro.errors import ConfigError
from repro.soc.system import System


class IccCoresCovert(TwoThreadChannel):
    """Cross-physical-core covert channel."""

    program_name = "icc_cores"
    location = ChannelLocation.ACROSS_CORES

    def __init__(self, system: System, config: ChannelConfig = ChannelConfig(),
                 sender_core: int = 0, receiver_core: int = 1) -> None:
        super().__init__(system, config)
        if system.config.n_cores < 2:
            raise ConfigError("IccCoresCovert needs at least two cores")
        if sender_core == receiver_core:
            raise ConfigError(
                "sender and receiver must run on different physical cores"
            )
        for core in (sender_core, receiver_core):
            if not 0 <= core < system.config.n_cores:
                raise ConfigError(f"no such core: {core}")
        self.sender_thread = system.thread_on(sender_core, 0)
        self.receiver_thread = system.thread_on(receiver_core, 0)

    def _probe_offset_ns(self) -> float:
        """Probe a few hundred cycles after the sender (Section 4.3.1)."""
        # The receiver's voltage request then queues behind the sender's.
        return self.config.cross_core_delay_ns
