"""Experiment sweep runner: parallel execution + content-addressed cache.

Regenerating the paper's artifacts means re-running sweeps of full
covert-channel transfers (Figures 8, 10, 13, 14, Table 2) whose trials
are independent simulations.  This package is the infrastructure every
scaling study runs on:

* :class:`SweepRunner` — executes a list of (function, kwargs) tasks,
  serially or on a process pool (``jobs``), returning results in input
  order so parallel and serial runs are bit-identical;
* :class:`ResultCache` — a content-addressed on-disk cache keyed by the
  code version plus the canonicalised task parameters, so a warm rerun
  of a figure skips all simulation work.

Usage::

    from repro.runner import ResultCache, SweepRunner
    from repro.analysis.experiments import fig8_throttling

    runner = SweepRunner(jobs=4, cache=ResultCache())
    result = fig8_throttling(trials=25, runner=runner)
"""

from repro.runner.cache import (
    CacheStats,
    ResultCache,
    canonicalize,
    code_version,
    task_key,
)
from repro.runner.sweep import RunStats, SweepRunner

__all__ = [
    "CacheStats",
    "ResultCache",
    "RunStats",
    "SweepRunner",
    "canonicalize",
    "code_version",
    "task_key",
]
