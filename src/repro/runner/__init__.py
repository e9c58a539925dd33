"""Experiment sweep runner: parallel execution + content-addressed cache.

The mitigation matrix and the resilience sweep re-run grids of full
covert-channel transfers whose cells are independent simulations.  This
package is the infrastructure they run on:

* :class:`SweepRunner` — executes a list of (function, kwargs) tasks,
  serially or on a process pool (``jobs``), returning results in input
  order so parallel and serial runs are bit-identical;
* :class:`ResultCache` — a content-addressed on-disk cache keyed by the
  code version plus the canonicalised task parameters, so a warm rerun
  of a sweep skips all simulation work.  It never evicts; its hits,
  misses and stores are the tracer's ``cache.*`` counters.

Usage::

    from repro.runner import ResultCache, SweepRunner
    from repro.analysis.experiments import resilience_sweep

    runner = SweepRunner(jobs=4, cache=ResultCache())
    result = resilience_sweep(trials=2, runner=runner)
"""

from repro.runner.cache import (
    ResultCache,
    canonicalize,
    code_version,
    task_key,
)
from repro.runner.sweep import RunStats, SweepRunner

__all__ = [
    "ResultCache",
    "RunStats",
    "SweepRunner",
    "canonicalize",
    "code_version",
    "task_key",
]
