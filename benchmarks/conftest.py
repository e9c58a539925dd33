"""Shared helpers for the benchmark harnesses.

Each ``bench_figNN`` / ``bench_tableN`` module times one paper experiment
at its defaults (the paper run) and prints that artifact's REPORT.md
section with :func:`repro.analysis.report.render_section`; the other
benches print their own rows.  Run with::

    pytest benchmarks/ --benchmark-only -s

``-s`` shows the regenerated sections; without it they are captured but
the benchmark timings and ``extra_info`` summaries still print.
"""

from __future__ import annotations

import os

import pytest

from repro.obs import Tracer, install, write_chrome_trace, write_metrics_json
from repro.runner import ResultCache, SweepRunner


@pytest.fixture(scope="session", autouse=True)
def obs_from_env():
    """Trace/meter a whole benchmark run from the environment.

    ``REPRO_TRACE=trace.json`` records every instrumented span of the
    session and writes a Chrome trace there at teardown;
    ``REPRO_METRICS=metrics.json`` writes the counter/histogram
    snapshot.  Either alone works (metrics-only runs skip the event
    list).  Unset, this fixture is inert and the no-op tracer stays
    installed.
    """
    trace_path = os.environ.get("REPRO_TRACE")
    metrics_path = os.environ.get("REPRO_METRICS")
    if not trace_path and not metrics_path:
        yield None
        return
    tracer = Tracer(events=trace_path is not None)
    previous = install(tracer)
    try:
        yield tracer
    finally:
        install(previous)
        if trace_path:
            write_chrome_trace(tracer, trace_path)
        if metrics_path:
            write_metrics_json(tracer, metrics_path)


def runner_from_env() -> SweepRunner:
    """A :class:`SweepRunner` configured from the environment.

    ``REPRO_JOBS`` sets the worker-process count (default 1, serial) and
    ``REPRO_CACHE_DIR`` — when set — attaches a result cache there, so
    the resilience benchmark can run parallel and warm-cached without
    touching the harness code.
    """
    jobs = int(os.environ.get("REPRO_JOBS", "1"))
    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    cache = ResultCache(root=cache_dir) if cache_dir else None
    return SweepRunner(jobs=jobs, cache=cache)


def banner(title: str) -> None:
    """Print a section header for a regenerated artifact."""
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
