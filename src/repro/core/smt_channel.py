"""IccSMTcovert: covert channel across co-located SMT threads (Section 4.2).

When the sender's PHI loop triggers a voltage transition, the core blocks
the shared IDQ-to-back-end interface for three of every four cycles — for
*both* SMT threads (Key Conclusion 5).  The receiver therefore just runs
a scalar 64-bit loop on the sibling hardware thread and times it: the
loop stretches by roughly the sender's throttling period, which encodes
the sender's level (Figure 4b).
"""

from __future__ import annotations

from repro.core.channel import ChannelConfig, TwoThreadChannel
from repro.core.levels import ChannelLocation
from repro.errors import ConfigError
from repro.soc.system import System


class IccSMTcovert(TwoThreadChannel):
    """Cross-SMT-thread covert channel."""

    program_name = "icc_smt"
    location = ChannelLocation.ACROSS_SMT

    def __init__(self, system: System, config: ChannelConfig = ChannelConfig(),
                 core: int = 0) -> None:
        super().__init__(system, config)
        if not system.config.supports_smt:
            raise ConfigError(
                f"{system.config.codename} has no SMT; IccSMTcovert needs "
                f"two hardware threads per core"
            )
        if not 0 <= core < system.config.n_cores:
            raise ConfigError(f"no such core: {core}")
        self.sender_thread = system.thread_on(core, 0)
        self.receiver_thread = system.thread_on(core, 1)
