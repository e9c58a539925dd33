"""Wall-clock transaction synchronisation (Section 4.3.3).

Sender and receiver cannot talk, so they agree (out of band, before the
attack) on an epoch and a slot length; each busy-waits on ``rdtsc`` until
the start of its slot.  :class:`SlotSchedule` is that shared agreement.

:class:`JitteredSchedule` extends it with a pseudo-random per-slot
offset derived from a shared seed: both parties compute identical slot
times, but an outside observer sees an aperiodic throttle train — the
attacker's answer to periodicity-based detection
(:class:`~repro.mitigations.detector.ThrottleAnomalyDetector`).
:class:`PerturbedSchedule` is the opposite: one party's private,
uncoordinated wake-up delays.

Both draw per slot from a counter-based generator: the salt folds into
a 64-bit key once per schedule (:func:`fold_key`), and slot ``i``'s
draw hashes ``(key, i)`` with splitmix64 (:func:`uniform`).  A draw
depends only on the salt and the slot index — never on query order,
process, or ``PYTHONHASHSEED`` — so two parties that share the salt
share the draws without talking.  The fault layer
(:mod:`repro.faults`) draws its event-driven randomness from the same
stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ProtocolError, bounded, check_fields

#: Relative boundary tolerance of :meth:`SlotSchedule.slot_index_at`, in
#: units of float64 rounding.  ``(t - epoch) / slot`` accumulates a few
#: ulps of error from the subtraction, the division and the caller's own
#: ``epoch + k * slot`` arithmetic, so a query *exactly on* a slot
#: boundary can land fractionally below it (``0.3 / 0.1 == 2.999…``).
#: Times within this tolerance of the next slot's start are assigned to
#: that slot.  The tolerance scales with ``max(index, epoch/slot)`` —
#: the magnitudes whose ulps dominate the error — and stays far below
#: any physically meaningful fraction of a slot.
_BOUNDARY_EPS = 4e-15

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """splitmix64's finaliser: a bijective avalanche of a 64-bit word."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def fold_key(salt: tuple) -> int:
    """Fold a tuple of ints (each taken mod 2**64) into a 64-bit key."""
    key = 0
    for part in salt:
        key = _mix64(((key ^ part) + _GOLDEN64) & _MASK64)
    return key


def uniform(key: int, counter: int) -> float:
    """Output ``counter`` of the splitmix64 stream ``key``, in [0, 1)."""
    word = _mix64((key + (counter + 1) * _GOLDEN64) & _MASK64)
    return (word >> 11) * 2.0**-53


@dataclass(frozen=True)
class SlotSchedule:
    """A shared schedule of fixed-length transaction slots."""

    epoch_ns: float = bounded(ge=0)
    slot_ns: float = bounded(gt=0)

    def __post_init__(self) -> None:
        check_fields(self, ProtocolError)

    def slot_start(self, index: int) -> float:
        """Absolute start time of slot ``index``."""
        if index < 0:
            raise ProtocolError(f"slot index must be >= 0, got {index}")
        return self.epoch_ns + index * self.slot_ns

    def slot_index_at(self, t_ns: float) -> int:
        """Index of the slot containing time ``t_ns`` (-1 before epoch).

        Boundary rule: a time exactly at (or within a few ulps below) a
        slot's start belongs to *that* slot, never the one before it —
        without the tolerance, float round-off in the division makes
        :meth:`next_slot_after` return a slot that already started.
        """
        if t_ns < self.epoch_ns:
            return -1
        raw = (t_ns - self.epoch_ns) / self.slot_ns
        index = int(raw)
        tolerance = _BOUNDARY_EPS * max(1.0, raw, self.epoch_ns / self.slot_ns)
        if (index + 1) - raw <= tolerance:
            index += 1
        return index

    def next_slot_after(self, t_ns: float) -> int:
        """Index of the first slot starting strictly after ``t_ns``."""
        if t_ns < self.epoch_ns:
            return 0
        return self.slot_index_at(t_ns) + 1


@dataclass(frozen=True)
class JitteredSchedule(SlotSchedule):
    """Slots with shared-seed pseudo-random start offsets.

    Slot ``i`` starts at ``epoch + i*slot + U(0, jitter)`` where the
    uniform draw hashes ``(seed, i)``, so both parties holding the seed
    compute it identically.  Slots never overlap because the jitter only
    delays a start within its own slot (``jitter_ns`` must stay below the
    slack the slot leaves after its send window).
    """

    jitter_ns: float = bounded(0.0, ge=0)
    seed: int = 0
    _offsets: dict = field(default_factory=dict, compare=False)
    _key: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "_key", fold_key((self.seed,)))
        if self.jitter_ns >= self.slot_ns:
            raise ProtocolError(
                f"jitter {self.jitter_ns} must stay below the slot "
                f"length {self.slot_ns}"
            )

    def _offset(self, index: int) -> float:
        """Slot ``index``'s jitter, drawn once from the counter hash."""
        cached = self._offsets.get(index)
        if cached is None:
            cached = self.jitter_ns * uniform(self._key, index)
            self._offsets[index] = cached
        return cached

    def slot_start(self, index: int) -> float:
        """Jittered start of slot ``index``."""
        return super().slot_start(index) + self._offset(index)


@dataclass(frozen=True)
class PerturbedSchedule(SlotSchedule):
    """A schedule whose party sees *uncoordinated* per-slot delays.

    Unlike :class:`JitteredSchedule` — where both parties compute the
    same offsets from a shared seed — a perturbed schedule models what
    an adversary does **not** control: scheduler wake-up latency that
    delays one party's slot entry independently of the other's.  The
    fault-injection layer (:mod:`repro.faults`) wraps each party's view
    of the shared schedule in one of these with a party-specific salt,
    so the sender and the receiver drift apart and symbols smear across
    slot boundaries.

    Delays are half-normal (``|N(0, sigma)|``), capped at ``cap_ns`` and
    always non-negative — the OS can wake a task late, never early.
    Slot ``i``'s normal comes by Box–Muller from two uniforms hashed
    from ``(salt, i)``.
    Indexing (:meth:`slot_index_at`) follows the unperturbed base
    schedule: the party is late *into* its nominal slot, the slot grid
    itself does not move.
    """

    base: SlotSchedule = None  # type: ignore[assignment]
    sigma_ns: float = bounded(0.0, ge=0)
    cap_ns: float = bounded(0.0, ge=0)
    salt: tuple = ()
    _delays: dict = field(default_factory=dict, compare=False)
    _key: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "_key", fold_key(self.salt))

    @classmethod
    def wrap(cls, base: SlotSchedule, sigma_ns: float, cap_ns: float,
             salt: tuple) -> "PerturbedSchedule":
        """Wrap ``base`` keeping its epoch/slot for shared arithmetic."""
        return cls(epoch_ns=base.epoch_ns, slot_ns=base.slot_ns, base=base,
                   sigma_ns=sigma_ns, cap_ns=cap_ns, salt=tuple(salt))

    def delay(self, index: int) -> float:
        """This party's wake-up delay entering slot ``index``."""
        cached = self._delays.get(index)
        if cached is None:
            # Box–Muller; 1 - u lies in (0, 1], so the log is finite.
            u1 = uniform(self._key, 2 * index)
            u2 = uniform(self._key, 2 * index + 1)
            normal = (math.sqrt(-2.0 * math.log(1.0 - u1))
                      * math.cos(2.0 * math.pi * u2))
            cached = min(self.cap_ns, abs(self.sigma_ns * normal))
            self._delays[index] = cached
        return cached

    def slot_start(self, index: int) -> float:
        """Delayed start of slot ``index`` as this party experiences it."""
        return self.base.slot_start(index) + self.delay(index)

    def slot_index_at(self, t_ns: float) -> int:
        """Index on the *unperturbed* grid (the slots themselves don't move)."""
        return self.base.slot_index_at(t_ns)

    def next_slot_after(self, t_ns: float) -> int:
        """First unperturbed slot starting strictly after ``t_ns``."""
        return self.base.next_slot_after(t_ns)
