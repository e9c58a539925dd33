"""AVX-unit power gates with staggered wake-up.

Skylake and later cores power-gate the wide AVX datapaths when idle to cut
leakage (Section 2, 'Power Gating').  To limit di/dt noise, the gate
controller wakes the domain in a *staggered* sequence, so opening takes
tens of nanoseconds (8-15 ns measured in Figure 8b) instead of a few
cycles.  Crucially — Key Conclusion 3 — this wake latency is ~0.1 % of
the microsecond-scale throttling period: power gating is *not* the source
of AVX throttling, contrary to NetSpectre's hypothesis.

Haswell predates AVX power gating, so its gate model reports a zero wake
latency and never closes (Figure 8c shows flat iteration latencies).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import bounded, check_fields
from repro.units import us_to_ns


@dataclass(frozen=True)
class PowerGateSpec:
    """Parameters of one execution-unit power gate.

    Parameters
    ----------
    present:
        Whether the unit has a gate at all (False on pre-Skylake parts).
    wake_ns:
        Staggered wake-up latency when opening a closed gate (8-15 ns on
        the parts the paper measures; we model the deterministic mean).
    idle_close_us:
        How long the unit must sit unused before the local PMU closes the
        gate again.  Intel does not document the value; tens of
        microseconds reproduces the observable behaviour (the gate is
        closed again by the time a reset-time-spaced transaction starts).
    """

    present: bool = True
    wake_ns: float = bounded(12.0, ge=0)
    idle_close_us: float = bounded(75.0, gt=0)

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass
class PowerGate:
    """State machine of one AVX-unit power gate.

    The owner calls :meth:`access` whenever the unit executes; the gate
    returns the wake latency the *first* access after a closed period
    pays, and zero afterwards.  Closing is lazy: the gate checks its idle
    timer on the next access.
    """

    spec: PowerGateSpec
    name: str = "avx_pg"
    _is_open: bool = field(default=False, init=False)
    _last_use_ns: float = field(default=float("-inf"), init=False)
    #: Count of open events, exposed for tests and traces.
    open_events: int = field(default=0, init=False)

    def is_open(self, now_ns: float) -> bool:
        """Whether the gate is open at ``now_ns`` (applying lazy close)."""
        if not self.spec.present:
            return True
        self._maybe_close(now_ns)
        return self._is_open

    def access(self, now_ns: float) -> float:
        """Record a unit access; return the wake latency paid (ns)."""
        if not self.spec.present:
            return 0.0
        self._maybe_close(now_ns)
        latency = 0.0
        if not self._is_open:
            self._is_open = True
            self.open_events += 1
            latency = self.spec.wake_ns
        self._last_use_ns = now_ns + latency
        return latency

    def touch(self, now_ns: float) -> None:
        """Refresh the idle timer without charging a wake latency."""
        if self.spec.present and self._is_open and now_ns > self._last_use_ns:
            self._last_use_ns = now_ns

    def _maybe_close(self, now_ns: float) -> None:
        """Close the gate once it has idled past the close delay."""
        if self._is_open and (
            now_ns - self._last_use_ns > us_to_ns(self.spec.idle_close_us)
        ):
            self._is_open = False


def skylake_gate(name: str = "avx_pg") -> PowerGate:
    """Gate as found on Skylake and later (present, ~12 ns wake)."""
    return PowerGate(PowerGateSpec(present=True), name=name)


def haswell_gate(name: str = "avx_pg") -> PowerGate:
    """Pre-Skylake: no AVX power gate, zero wake latency."""
    return PowerGate(PowerGateSpec(present=False), name=name)
