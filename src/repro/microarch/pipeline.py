"""Cycle-exact model of the IDQ front-end to back-end interface.

The paper establishes (Section 5.6, Figure 11) that during a throttling
period the core blocks uop delivery from the Instruction Decode Queue to
the back-end during **three of every four cycles**, for the *entire core*
— both SMT threads — while the back-end is not stalled.  This module
reproduces that behaviour at cycle granularity so the PMC signatures
(normalised ``IDQ_UOPS_NOT_DELIVERED`` ~0.75 throttled, ~0 otherwise) are
measurable rather than asserted.

The model is defined cycle by cycle, but :meth:`CorePipeline.run`
advances it in closed form: per call, which thread owns each cycle and
whether the gate blocks it repeat with the throttle window, and a loop's
delivery repeats with its block, so counts multiply out instead of being
stepped.  The per-cycle stepper lives in the tests as the reference
oracle the closed form must match on every counter and state field.

The model is delivery-bound: tight micro-benchmark loops (unrolled
300-instruction blocks) keep the IDQ full, and the back-end accepts
whatever the IDQ delivers.  The only delivery bubbles outside throttling
are the single-cycle steers at loop-block boundaries, which is why the
unthrottled normalised undelivered fraction is near — but not exactly —
zero, matching the measured distribution.

The *improved throttling* mitigation of Section 7 is modelled by gating
only the offending thread's uops instead of the whole interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ConfigError
from repro.isa.instructions import IClass
from repro.microarch.counters import CounterBank, PMC


@dataclass(frozen=True)
class PipelineConfig:
    """Static parameters of the front-end model.

    Parameters
    ----------
    delivery_width:
        Maximum uops the IDQ hands to the back-end per cycle (4 on the
        parts the paper measures).
    throttle_window:
        Length of the throttle gating window in cycles.
    throttle_open_cycles:
        Cycles per window during which delivery is allowed while
        throttled (1 of 4 -> the measured 75 % blocked fraction).
    smt_threads:
        Hardware threads sharing this front-end (1 or 2).
    block_instructions:
        Instructions per unrolled loop block; a one-cycle steer bubble is
        charged at each block boundary.
    """

    delivery_width: int = 4
    throttle_window: int = 4
    throttle_open_cycles: int = 1
    smt_threads: int = 2
    block_instructions: int = 300

    def __post_init__(self) -> None:
        if self.delivery_width < 1:
            raise ConfigError(f"delivery width must be >= 1, got {self.delivery_width}")
        if not 1 <= self.throttle_open_cycles <= self.throttle_window:
            raise ConfigError(
                "throttle_open_cycles must be within the window: "
                f"{self.throttle_open_cycles} of {self.throttle_window}"
            )
        if self.smt_threads not in (1, 2):
            raise ConfigError(f"smt_threads must be 1 or 2, got {self.smt_threads}")
        if self.block_instructions < 2:
            raise ConfigError(
                f"block_instructions must be >= 2, got {self.block_instructions}"
            )

    @property
    def blocked_fraction(self) -> float:
        """Fraction of throttled cycles with delivery blocked."""
        return 1.0 - self.throttle_open_cycles / self.throttle_window


@dataclass
class ThreadState:
    """Per-hardware-thread front-end state."""

    tid: int
    iclass: Optional[IClass] = None
    counters: CounterBank = field(default_factory=CounterBank)
    _block_progress: int = 0

    @property
    def active(self) -> bool:
        """Whether the thread has a loop to run."""
        return self.iclass is not None


class CorePipeline:
    """One core's IDQ-to-back-end interface, exact to the cycle.

    Each :meth:`run` call is advanced in closed form, at a cost set by
    ``throttle_window`` and ``smt_threads`` rather than by the number of
    cycles; the per-cycle stepper it reproduces is the test oracle.

    Usage::

        pipe = CorePipeline(PipelineConfig())
        pipe.set_thread(0, IClass.HEAVY_256)
        pipe.set_throttle(True)
        pipe.run(10_000)
        frac = normalized_undelivered(pipe.thread(0).counters.snapshot())
    """

    def __init__(self, config: PipelineConfig = PipelineConfig()) -> None:
        self.config = config
        self._threads: Dict[int, ThreadState] = {
            tid: ThreadState(tid) for tid in range(config.smt_threads)
        }
        self.core_counters = CounterBank()
        self._cycle = 0
        self._throttled = False
        self._throttled_tids: Optional[Set[int]] = None
        self._rr_next = 0
        #: :meth:`_walk` results by argument tuple (a few hundred at most).
        self._walks: Dict[tuple, Tuple[list, list, int]] = {}

    # -- configuration -----------------------------------------------------

    def thread(self, tid: int) -> ThreadState:
        """The state of hardware thread ``tid``."""
        if tid not in self._threads:
            raise ConfigError(f"no such hardware thread: {tid}")
        return self._threads[tid]

    def set_thread(self, tid: int, iclass: Optional[IClass]) -> None:
        """Point thread ``tid`` at a tight loop of ``iclass`` (or idle)."""
        self.thread(tid).iclass = iclass

    def set_throttle(self, active: bool,
                     only_threads: Optional[Set[int]] = None) -> None:
        """Engage or release the delivery throttle.

        ``only_threads`` selects the *improved throttling* mitigation:
        instead of blocking the shared interface for the whole core, only
        the listed threads' uops are gated and the other thread keeps its
        full delivery share.
        """
        if only_threads is not None:
            for tid in only_threads:
                self.thread(tid)  # validate
        self._throttled = active
        self._throttled_tids = set(only_threads) if only_threads is not None else None

    # -- simulation --------------------------------------------------------

    def run(self, cycles: int) -> None:
        """Advance the front-end by ``cycles`` core clock cycles.

        Every counter and every piece of state ends exactly where stepping
        one cycle at a time would leave it; the cost depends on the
        throttle window and thread count, not on ``cycles``.
        """
        if not isinstance(cycles, int) or isinstance(cycles, bool):
            raise ConfigError(f"cycles must be an int, got {cycles!r}")
        if cycles < 0:
            raise ConfigError(f"cycles must be >= 0, got {cycles}")
        active = [t for t in self._threads.values() if t.active]
        if active:
            owned = self._owned_cycles(active, cycles)
            self.core_counters.add(PMC.CPU_CLK_UNHALTED, cycles)
            if self._throttled:
                self.core_counters.add(PMC.THROTTLE_CYCLES, cycles)
            width = self.config.delivery_width
            for thread, open_cycles, blocked_cycles in zip(
                    active, owned[::2], owned[1::2]):
                thread.counters.add(PMC.CPU_CLK_UNHALTED, cycles)
                delivered, thread._block_progress = _loop_delivery(
                    thread._block_progress, open_cycles, width,
                    self.config.block_instructions)
                # Gated cycles deliver nothing while the back-end is not
                # stalled: every slot of an owned cycle not filled counts.
                undelivered = (open_cycles + blocked_cycles) * width - delivered
                for bank in (thread.counters, self.core_counters):
                    bank.add(PMC.UOPS_DELIVERED, delivered)
                    bank.add(PMC.INSTRUCTIONS_RETIRED, delivered)
                    bank.add(PMC.IDQ_UOPS_NOT_DELIVERED, undelivered)
        self._cycle += cycles

    def _owned_cycles(self, active: List[ThreadState],
                      cycles: int) -> List[int]:
        """Open and gated cycles each active thread owns over ``cycles``.

        Returns ``[open, gated]`` per thread, flat, in ``active`` order,
        and leaves ``_rr_next`` where the last of the ``cycles`` leaves it.
        The walk from the current state (:meth:`_walk`) repeats within
        ``2 * throttle_window`` steps, so its repeating part is multiplied
        out.
        """
        tids = tuple(t.tid for t in active)
        gated = tuple(tid for tid in tids if self._throttled and (
            self._throttled_tids is None or tid in self._throttled_tids))
        key = (tids, gated, self._cycle % self.config.throttle_window,
               self._rr_next)
        if key not in self._walks:
            self._walks[key] = self._walk(*key)
        states, counts, loop = self._walks[key]
        index, repeats = cycles, 0
        if cycles >= loop:
            repeats, rest = divmod(cycles - loop, len(states) - loop)
            index = loop + rest
        self._rr_next = states[index][1]
        return [count + repeats * (end - start) for count, end, start
                in zip(counts[index], counts[-1], counts[loop])]

    def _walk(self, tids: Tuple[int, ...], gated: Tuple[int, ...],
              phase: int, rr_next: int) -> Tuple[list, list, int]:
        """Cycle ownership from one state until the state repeats.

        With the active and gated threads fixed, which thread owns a
        cycle and whether the gate blocks it depend only on
        ``(cycle % throttle_window, _rr_next)``.  Returns ``(states,
        counts, loop)``: the states visited; the ``[open, gated]`` cycles
        per thread (flat, in ``tids`` order) owned before each step and
        after the last; and the index of the state the walk re-enters.
        The result depends only on the arguments, so it is memoised.
        """
        window = self.config.throttle_window
        states: List[Tuple[int, int]] = []
        counts = [(0,) * (2 * len(tids))]
        seen: Dict[Tuple[int, int], int] = {}
        state = (phase, rr_next)
        while state not in seen:
            seen[state] = len(states)
            states.append(state)
            owner, blocked, rr_next = self._arbitrate(tids, gated, *state)
            step = list(counts[-1])
            step[2 * tids.index(owner) + blocked] += 1
            counts.append(tuple(step))
            state = ((state[0] + 1) % window, rr_next)
        return states, counts, seen[state]

    def _arbitrate(self, tids: Tuple[int, ...], gated: Tuple[int, ...],
                   phase: int, rr_next: int) -> Tuple[int, bool, int]:
        """``(owner, gated, next rr_next)`` of one cycle at window ``phase``.

        Ownership round-robins among active threads.  With the whole-core
        gate the choice is moot (both threads are blocked alike); with
        per-thread gating a gated thread's cycle is a wasted slot for it,
        not for its sibling, so gated owners are skipped in favour of
        runnable ones when possible.
        """
        closed = phase >= self.config.throttle_open_cycles
        if len(tids) == 1:
            return tids[0], closed and tids[0] in gated, rr_next
        order = sorted(tids, key=lambda tid: (tid < rr_next, tid))
        owner = next((tid for tid in order
                      if not (closed and tid in gated)), order[0])
        return (owner, closed and owner in gated,
                (owner + 1) % self.config.smt_threads)

    # -- derived measurements ----------------------------------------------

    def measure_ipc(self, tid: int, iclass: IClass, cycles: int,
                    throttled: bool,
                    only_threads: Optional[Set[int]] = None) -> float:
        """Measured uops-per-cycle of a fresh run (convenience for tests)."""
        self.set_thread(tid, iclass)
        self.set_throttle(throttled, only_threads)
        before = self.thread(tid).counters.snapshot()
        start_cycles = self.thread(tid).counters.read(PMC.CPU_CLK_UNHALTED)
        self.run(cycles)
        delta = self.thread(tid).counters.delta(before)
        elapsed = self.thread(tid).counters.read(PMC.CPU_CLK_UNHALTED) - start_cycles
        if elapsed == 0:
            return 0.0
        return delta[PMC.UOPS_DELIVERED] / elapsed


def _loop_delivery(progress: int, cycles: int, width: int,
                   block: int) -> Tuple[int, int]:
    """Uops a loop delivers over ``cycles`` open owned cycles.

    Returns ``(delivered, progress after)``.  Each block takes
    ``ceil(block / width)`` delivering cycles (``width`` uops each, the
    last one short) and then one loop-edge steer bubble that resets
    ``progress`` to 0.
    """
    to_edge = -(-(block - progress) // width)
    if cycles <= to_edge:
        delivered = min(cycles * width, block - progress)
        return delivered, progress + delivered
    # Finish this block, take its bubble, then whole blocks and a tail.
    blocks, rest = divmod(cycles - to_edge - 1, -(-block // width) + 1)
    tail = min(rest * width, block)
    return block - progress + blocks * block + tail, tail
