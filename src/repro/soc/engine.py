"""Discrete-event simulation engine.

A minimal, deterministic event loop: callbacks are ordered by (time,
sequence number), so events scheduled earlier at the same timestamp run
first.  Everything in the simulator — voltage settles, loop completions,
hysteresis expiries, noise arrivals — is an :class:`EventHandle` on this
queue.

Programs (covert-channel senders/receivers, workload drivers) are written
as Python generators that ``yield`` request objects; the
:class:`~repro.soc.system.System` resumes them when the request completes.
The engine itself knows nothing about programs; it only runs callbacks.

Engine-level optimisations keep cancel-heavy workloads cheap (a
recompute that moves an in-flight loop's completion cancels and
reschedules its event, so covert transfers cancel a large share of the
events they schedule):

* heap entries are plain ``(time, seq, handle)`` tuples — tuple
  comparison in C instead of dataclass ``__lt__`` dispatch per sift;
* cancelled entries are dropped lazily at pop time as before, but when
  they outnumber half the heap the whole heap is compacted in one
  O(n) filter + heapify, bounding both memory and ``heappush`` cost;
* the heap-garbage estimate counts only cancellations of entries that
  are *still in the heap* — cancelling an already-popped handle (a stale
  completion, re-cancellation through compaction) is common and used to
  overstate garbage, triggering pointless compactions;
* :meth:`Engine.run_until` pops due events in a single bounded loop
  instead of the historical ``peek_time()`` + ``step()`` pair, which
  scanned every cancelled head twice.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs.tracer import current as _obs

#: Compaction is skipped below this heap size; the O(n) rebuild only
#: pays for itself once the heap is big enough for sift cost to matter.
_COMPACT_MIN_SIZE = 64


class EventHandle:
    """A scheduled callback that can be cancelled before it fires."""

    __slots__ = ("time_ns", "callback", "args", "cancelled", "in_heap",
                 "_engine")

    def __init__(self, time_ns: float, callback: Callable[..., Any],
                 args: Tuple[Any, ...],
                 engine: Optional["Engine"] = None) -> None:
        self.time_ns = time_ns
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: Whether the heap still holds this handle's entry.  Cleared on
        #: every pop (run, lazy drop, or compaction) so cancellations of
        #: departed handles do not count as heap garbage.
        self.in_heap = False
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._engine is not None:
            self._engine._note_cancel(self.in_heap)


class Engine:
    """The event queue and simulation clock."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._cancelled = 0
        self.now: float = 0.0
        self.events_run: int = 0

    def schedule(self, delay_ns: float, callback: Callable[..., Any],
                 *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay_ns`` from now.

        Delegates to :meth:`schedule_at`; a NaN delay is rejected rather
        than silently becoming "now".
        """
        if not delay_ns >= -1e-9:
            raise SimulationError(
                f"cannot schedule a delay of {delay_ns} ns at t={self.now}"
            )
        return self.schedule_at(self.now + max(0.0, delay_ns), callback, *args)

    def schedule_at(self, time_ns: float, callback: Callable[..., Any],
                    *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``time_ns``.

        The negated comparison also rejects NaN, which would otherwise
        enter the heap, run out of order and set ``now`` to NaN.
        """
        if not time_ns >= self.now - 1e-9:
            raise SimulationError(
                f"cannot schedule at t={time_ns} before now={self.now}"
            )
        handle = EventHandle(max(time_ns, self.now), callback, args, self)
        handle.in_heap = True
        heapq.heappush(self._heap, (handle.time_ns, next(self._seq), handle))
        return handle

    # -- cancellation bookkeeping --------------------------------------------

    def _note_cancel(self, in_heap: bool) -> None:
        """Bookkeeping hook called by :meth:`EventHandle.cancel`.

        Every first cancellation is counted in the observability metrics,
        but only cancellations of entries still sitting in the heap add
        to the garbage estimate that drives compaction — a cancel after
        the entry was already popped leaves no garbage behind.
        """
        tracer = _obs()
        if tracer.enabled:
            tracer.metrics.counter("engine.cancelled").inc()
        if not in_heap:
            return
        self._cancelled += 1
        if (len(self._heap) >= _COMPACT_MIN_SIZE
                and self._cancelled > len(self._heap) // 2):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry in one filter + heapify pass.

        Recounts the garbage estimate from scratch: after the filter the
        heap holds no cancelled entries, so the estimate is exactly zero.
        The invariant ``_cancelled == #cancelled-entries-in-heap`` holds
        at every point between engine calls (asserted by the test suite
        via :meth:`check_cancel_invariant`).
        """
        before = len(self._heap)
        kept: List[Tuple[float, int, EventHandle]] = []
        for entry in self._heap:
            if entry[2].cancelled:
                entry[2].in_heap = False
            else:
                kept.append(entry)
        # In-place replacement: compaction can run from a cancel inside a
        # dispatched callback while a run loop holds a reference to the
        # heap list, so the list identity must never change.
        self._heap[:] = kept
        heapq.heapify(self._heap)
        self._cancelled = 0
        tracer = _obs()
        if tracer.enabled:
            tracer.metrics.counter("engine.compactions").inc()
            tracer.instant("engine.compact", "engine", self.now, track="engine",
                           args={"dropped": before - len(self._heap),
                                 "kept": len(self._heap)})

    def check_cancel_invariant(self) -> bool:
        """Whether the garbage estimate matches the heap's actual garbage.

        Test/debug helper — O(n) over the heap.
        """
        actual = sum(1 for entry in self._heap if entry[2].cancelled)
        return self._cancelled == actual

    def _drop_cancelled_head(self) -> None:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)[2].in_heap = False
            self._cancelled -= 1

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or None when idle."""
        self._drop_cancelled_head()
        return self._heap[0][0] if self._heap else None

    def _dispatch(self, time_ns: float, handle: EventHandle) -> None:
        """Advance the clock to a popped event and run its callback."""
        self.now = time_ns
        self.events_run += 1
        tracer = _obs()
        if tracer.enabled:
            tracer.metrics.counter("engine.events_run").inc()
            if tracer.engine_events:
                tracer.instant(
                    getattr(handle.callback, "__qualname__",
                            repr(handle.callback)),
                    "engine", time_ns, track="engine",
                )
        handle.callback(*handle.args)

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        while self._heap:
            time_ns, _, handle = heapq.heappop(self._heap)
            handle.in_heap = False
            if handle.cancelled:
                self._cancelled -= 1
                continue
            self._dispatch(time_ns, handle)
            return True
        return False

    def run_until(self, time_ns: float) -> None:
        """Run every event up to and including ``time_ns``.

        The clock ends exactly at ``time_ns`` even if the queue drains
        earlier, so traces sampled afterwards cover the full span.  Due
        events are popped in one bounded loop: each heap entry — live or
        cancelled — is inspected exactly once, where the historical
        ``peek_time()`` + ``step()`` pairing scanned every cancelled
        head twice.
        """
        if time_ns < self.now:
            raise SimulationError(f"cannot run backwards to {time_ns} from {self.now}")
        heap = self._heap
        while heap:
            entry_time, _, handle = heap[0]
            if handle.cancelled:
                heapq.heappop(heap)[2].in_heap = False
                self._cancelled -= 1
                continue
            if entry_time > time_ns:
                break
            heapq.heappop(heap)
            handle.in_heap = False
            self._dispatch(entry_time, handle)
        self.now = time_ns

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until the queue drains (bounded by ``max_events``)."""
        for _ in range(max_events):
            if not self.step():
                return
        if self.peek_time() is None:
            return  # the last allowed event drained the queue
        raise SimulationError(f"engine exceeded {max_events} events; runaway loop?")
