"""Parallel experiment executor with optional result caching.

A *task* is a module-level function plus a kwargs dict, both picklable —
exactly the shape of the resilience-sweep and mitigation-matrix trials
(every trial builds its own :class:`~repro.soc.system.System` from a
:class:`ProcessorConfig` and a seed, so tasks share no state and any
execution order gives identical results).  :meth:`SweepRunner.map` preserves input order in its output,
which makes ``jobs=1`` and ``jobs=N`` bit-identical by construction.

With a :class:`~repro.runner.cache.ResultCache` attached, each task is
looked up by content address first; only misses are executed (in
parallel if requested) and stored back, so a warm rerun of a sweep
executes nothing.
"""

from __future__ import annotations

import concurrent.futures
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.obs.tracer import current as _obs
from repro.runner.cache import ResultCache


def _annotate_failure(exc: BaseException, index: int,
                      kwargs: Mapping[str, Any]) -> BaseException:
    """Attach the failing task's identity to its exception.

    The original exception type is preserved (callers' ``except`` clauses
    keep working); ``task_index`` and ``task_kwargs`` attributes — plus an
    exception note on Python >= 3.11 — say *which* task of the sweep died
    and with what parameters.
    """
    exc.task_index = index  # type: ignore[attr-defined]
    exc.task_kwargs = dict(kwargs)  # type: ignore[attr-defined]
    add_note = getattr(exc, "add_note", None)
    if add_note is not None:
        add_note(f"SweepRunner task {index} failed; kwargs={dict(kwargs)!r}")
    return exc


@dataclass
class RunStats:
    """What one :meth:`SweepRunner.map` call did.

    ``executed`` counts tasks that actually ran *to completion* — a
    sweep that dies on task 1 of 50 reports 1, not 50.  ``deduped``
    counts positions resolved by copying another position's result
    because both canonicalised to the same cache key within the call.
    """

    tasks: int = 0
    cache_hits: int = 0
    executed: int = 0
    deduped: int = 0

    def add(self, other: "RunStats") -> None:
        """Accumulate another call's stats into this one."""
        self.tasks += other.tasks
        self.cache_hits += other.cache_hits
        self.executed += other.executed
        self.deduped += other.deduped


class SweepRunner:
    """Executes independent experiment tasks, optionally in parallel.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) runs every task inline in
        this process — no pool, no pickling, the exact legacy behaviour.
    cache:
        Optional :class:`ResultCache`; hits skip execution entirely.
    """

    def __init__(self, jobs: int = 1,
                 cache: Optional[ResultCache] = None) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        #: Stats of the most recent :meth:`map` call.
        self.last_run = RunStats()
        #: Cumulative stats across the runner's lifetime.
        self.total = RunStats()

    def map(self, fn: Callable[..., Any],
            kwargs_list: Sequence[Mapping[str, Any]]) -> List[Any]:
        """Run ``fn(**kwargs)`` for every kwargs set, in input order.

        Results are returned positionally; parallel execution cannot
        reorder them.  ``fn`` must be a module-level function and every
        kwargs value picklable when ``jobs > 1`` (process pool) or when
        a cache is attached (results are pickled to disk).

        When a task raises, every sibling result that already completed
        is still stored in the cache before the exception propagates —
        a crashed sweep resumes from where it died instead of replaying
        finished work.  The re-raised exception carries ``task_index``
        and ``task_kwargs`` attributes identifying the failing task, and
        ``last_run``/``total`` still account for the completed siblings.

        With a cache attached, positions whose kwargs canonicalise to
        the same content address are *deduplicated within the call*: one
        representative executes (or hits), and every duplicate position
        receives a copy of its result (``RunStats.deduped`` counts the
        copies).  Without a cache there are no content addresses, so
        duplicates execute independently, exactly as before.
        """
        stats = RunStats(tasks=len(kwargs_list))
        results: List[Any] = [None] * len(kwargs_list)
        pending: List[int] = []
        keys: List[Optional[str]] = [None] * len(kwargs_list)
        #: Duplicate position -> representative position with the same key.
        duplicate_of: Dict[int, int] = {}
        tracer = _obs()

        if self.cache is not None:
            first_by_key: Dict[str, int] = {}
            for idx, kwargs in enumerate(kwargs_list):
                key = self.cache.key_for(fn, kwargs)
                keys[idx] = key
                representative = first_by_key.get(key)
                if representative is not None:
                    # Same content address earlier in this very call:
                    # don't look it up (it would miss while the
                    # representative is still pending) and don't execute
                    # it again — copy the representative's result below.
                    duplicate_of[idx] = representative
                    stats.deduped += 1
                    continue
                first_by_key[key] = idx
                hit, value = self.cache.get(key)
                if hit:
                    results[idx] = value
                    stats.cache_hits += 1
                else:
                    pending.append(idx)
        else:
            pending = list(range(len(kwargs_list)))

        completed: List[int] = []
        failure: Optional[Tuple[int, BaseException]] = None
        if pending:
            try:
                if self.jobs == 1 or len(pending) == 1:
                    for idx in pending:
                        try:
                            results[idx] = self._run_one(
                                fn, kwargs_list[idx], idx, tracer)
                        except Exception as exc:
                            failure = (idx, exc)
                            break
                        completed.append(idx)
                else:
                    workers = min(self.jobs, len(pending))
                    with concurrent.futures.ProcessPoolExecutor(
                            max_workers=workers) as pool:
                        futures = {
                            idx: pool.submit(fn, **kwargs_list[idx])
                            for idx in pending
                        }
                        # Drain every future before deciding the call's
                        # fate: one failure must not discard siblings
                        # that finished (or will finish) successfully.
                        for idx, future in futures.items():
                            try:
                                results[idx] = future.result()
                            except Exception as exc:
                                if failure is None:
                                    failure = (idx, exc)
                                continue
                            completed.append(idx)
            finally:
                if self.cache is not None:
                    for idx in completed:
                        self.cache.put(keys[idx], results[idx])

        # Executed counts *completions*: a sweep that dies on its first
        # task reports 1 (or 0), never the whole pending count.
        stats.executed = len(completed)

        # Resolve in-call duplicates from their representatives (cache
        # hits never entered ``pending``; executed ones must have
        # completed).  A duplicate of a failed representative stays
        # unresolved, which only matters on the failure path (no
        # results are returned).
        completed_set = set(completed)
        pending_set = set(pending)
        for idx, representative in duplicate_of.items():
            if (representative in completed_set
                    or representative not in pending_set):
                results[idx] = results[representative]

        if tracer.enabled:
            tracer.metrics.counter("runner.tasks").inc(stats.tasks)
            tracer.metrics.counter("runner.cache_hits").inc(stats.cache_hits)
            tracer.metrics.counter("runner.executed").inc(stats.executed)
            tracer.metrics.counter("runner.deduped").inc(stats.deduped)
            if failure is not None:
                tracer.metrics.counter("runner.task_failures").inc()

        # last_run/total stay consistent on the failure path too: the
        # caller's except clause can still read how much work finished.
        self.last_run = stats
        self.total.add(stats)

        if failure is not None:
            idx, exc = failure
            raise _annotate_failure(exc, idx, kwargs_list[idx])
        return results

    def _run_one(self, fn: Callable[..., Any], kwargs: Mapping[str, Any],
                 index: int, tracer) -> Any:
        """Run one task inline, under a wall-clock span when tracing."""
        if not tracer.enabled:
            return fn(**kwargs)
        start = time.perf_counter()
        with tracer.wall_span("runner.task", "runner",
                              args={"index": index}) as span:
            try:
                result = fn(**kwargs)
            except Exception:
                span["outcome"] = "error"
                raise
            span["outcome"] = "executed"
        tracer.metrics.histogram("runner.task_wall_ms").observe(
            (time.perf_counter() - start) * 1e3)
        return result
