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

A recompute that moves an in-flight loop's completion cancels and
reschedules its event, so covert transfers cancel a large share of the
events they schedule.  Heap entries are plain ``(time, seq, handle)``
tuples (tuple comparison in C), and cancelled entries are dropped
lazily when they reach the head; the heap stays small (a few dozen
entries at most on every registered scenario), so they cost little
while they wait.
:meth:`Engine.run_until` pops due events in a single bounded loop, so
each entry, live or cancelled, is inspected once.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs.tracer import current as _obs


class EventHandle:
    """A scheduled callback that can be cancelled before it fires."""

    __slots__ = ("time_ns", "callback", "args", "cancelled")

    def __init__(self, time_ns: float, callback: Callable[..., Any],
                 args: Tuple[Any, ...]) -> None:
        self.time_ns = time_ns
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        tracer = _obs()
        if tracer.enabled:
            tracer.metrics.counter("engine.cancelled").inc()


class Engine:
    """The event queue and simulation clock."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self.now: float = 0.0
        self.events_run: int = 0

    def schedule(self, delay_ns: float, callback: Callable[..., Any],
                 *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay_ns`` from now.

        Delegates to :meth:`schedule_at`, which clamps a delay within
        rounding of zero to "now"; a NaN delay is rejected rather than
        silently becoming "now".
        """
        if not delay_ns >= -1e-9:
            raise SimulationError(
                f"cannot schedule a delay of {delay_ns} ns at t={self.now}"
            )
        return self.schedule_at(self.now + delay_ns, callback, *args)

    def schedule_at(self, time_ns: float, callback: Callable[..., Any],
                    *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``time_ns``.

        The negated comparison also rejects NaN, which would otherwise
        enter the heap, run out of order and set ``now`` to NaN.
        """
        now = self.now
        if not time_ns >= now - 1e-9:
            raise SimulationError(
                f"cannot schedule at t={time_ns} before now={now}"
            )
        if now > time_ns:
            time_ns = now
        handle = EventHandle(time_ns, callback, args)
        heapq.heappush(self._heap, (time_ns, next(self._seq), handle))
        return handle

    def _drop_cancelled_head(self) -> None:
        """Pop cancelled events off the top of the heap."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)

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
            if handle.cancelled:
                continue
            self._dispatch(time_ns, handle)
            return True
        return False

    def run_until(self, time_ns: float) -> None:
        """Run every event up to and including ``time_ns``.

        The clock ends exactly at ``time_ns`` even if the queue drains
        earlier, so traces sampled afterwards cover the full span.  Due
        events are popped in one bounded loop: each heap entry — live or
        cancelled — is inspected exactly once.  The negated comparison
        also rejects NaN, which would run every pending event and leave
        ``now`` NaN; an infinite target is rejected too.
        """
        if not self.now <= time_ns < math.inf:
            raise SimulationError(
                f"cannot run to t={time_ns} from now={self.now}: the target "
                f"must be finite and not in the past")
        heap = self._heap
        while heap:
            entry_time, _, handle = heap[0]
            if handle.cancelled:
                heapq.heappop(heap)
                continue
            if entry_time > time_ns:
                break
            heapq.heappop(heap)
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
