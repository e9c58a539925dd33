"""System noise: interrupts, context switches, concurrent applications.

Section 6.3 of the paper analyses two noise sources:

* **Interrupts and context switches** preempt the receiver while it is
  timing its decode loop, stretching the measured interval by a few
  microseconds (interrupts) to tens of microseconds (context switches).
  We model each as a Poisson arrival process per hardware thread that
  suspends the thread for a lognormally-jittered service time.
* **Concurrent applications executing PHIs** perturb the shared rail.
  Because the voltage request of a *noisier* (higher-level) PHI can
  outrank the covert channel's own PHI, decode errors appear when the
  noise app's rate rises (Figure 14b/c).  The noise app here is a real
  simulated program — a :func:`~repro.isa.workload.random_phi_schedule`
  trace played by :func:`attach_trace`, whose PHIs go through the same
  PMU path as the channel's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Sequence

from repro.errors import ConfigError, bounded, check_fields
from repro.isa.workload import PhaseTrace
from repro.soc.system import System
from repro.units import us_to_ns

if TYPE_CHECKING:  # pragma: no cover - types only
    import numpy as np


@dataclass(frozen=True)
class NoiseConfig:
    """Arrival rates and service times of OS noise on one thread.

    Defaults follow the paper's citations: interrupt service within a
    few microseconds, context switches within tens of microseconds, at
    hundreds (noisy) to thousands (highly noisy) of events per second.
    """

    interrupt_rate_per_s: float = bounded(500.0, ge=0)
    interrupt_mean_us: float = bounded(3.0, gt=0)
    ctx_switch_rate_per_s: float = bounded(100.0, ge=0)
    ctx_switch_mean_us: float = bounded(25.0, gt=0)

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def total_event_rate_per_s(self) -> float:
        """Combined interrupt + context-switch rate."""
        return self.interrupt_rate_per_s + self.ctx_switch_rate_per_s


def _preemption_process(system: System, thread_id: int, rate_per_s: float,
                        mean_us: float, rng: np.random.Generator,
                        horizon_ns: float) -> Generator:
    """A program that repeatedly suspends ``thread_id`` at Poisson times."""
    if rate_per_s <= 0:
        return
        yield  # pragma: no cover - makes this a generator
    import numpy as np

    mean_gap_ns = 1e9 / rate_per_s
    log_mean_us = np.log(mean_us)
    while system.now < horizon_ns:
        gap = float(rng.exponential(mean_gap_ns))
        yield system.sleep(gap)
        if system.now >= horizon_ns:
            break
        # Lognormal jitter around the mean service time: occasional long
        # handlers, never negative.
        service_us = float(rng.lognormal(log_mean_us, 0.35))
        system.suspend_thread(thread_id)
        yield system.sleep(us_to_ns(service_us))
        system.resume_thread(thread_id)


def attach_system_noise(system: System, thread_ids: Sequence[int],
                        config: NoiseConfig, horizon_ns: float,
                        seed: int = 1) -> None:
    """Attach interrupt + context-switch noise to the given threads."""
    if horizon_ns <= 0:
        raise ConfigError(f"horizon must be positive, got {horizon_ns}")
    import numpy as np

    for i, thread_id in enumerate(thread_ids):
        irq_rng = np.random.default_rng((seed, thread_id, 0))
        ctx_rng = np.random.default_rng((seed, thread_id, 1))
        system.spawn(
            _preemption_process(system, thread_id, config.interrupt_rate_per_s,
                                config.interrupt_mean_us, irq_rng, horizon_ns),
            name=f"irq_noise_t{thread_id}",
        )
        system.spawn(
            _preemption_process(system, thread_id, config.ctx_switch_rate_per_s,
                                config.ctx_switch_mean_us, ctx_rng, horizon_ns),
            name=f"ctx_noise_t{thread_id}",
        )


def attach_trace(system: System, thread_id: int, trace: PhaseTrace) -> None:
    """Play an arbitrary phase trace on a thread (workload noise)."""
    system.spawn(system.trace_program(thread_id, trace),
                 name=f"trace_{trace.name}_t{thread_id}")
