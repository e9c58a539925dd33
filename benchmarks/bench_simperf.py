"""Simulator performance: how fast the simulation itself runs.

Not a paper artifact — a regression guard on the event-driven engine's
efficiency.  A full covert-channel transfer (calibration + 16 symbols,
~18 ms of simulated time, hundreds of voltage transitions) should stay
in the tens-of-milliseconds range of host time.
"""

import gc
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from repro import System, cannon_lake_i3_8121u
from repro.core import IccThreadCovert


SRC = Path(__file__).resolve().parent.parent / "src"


def cold_import_seconds(runs=5):
    """Median wall time of fresh interpreters importing repro.core."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    seconds = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro, repro.core"],
                       env=env, check=True)
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds)


def one_transfer():
    system = System(cannon_lake_i3_8121u())
    report = IccThreadCovert(system).transfer(b"\x5a\xc3\x0f\x3c")
    return system, report


def test_bench_simperf(benchmark):
    system, report = benchmark.pedantic(one_transfer, rounds=5, iterations=1)
    simulated_s = system.now / 1e9
    benchmark.extra_info["simulated_ms"] = round(system.now / 1e6, 1)
    benchmark.extra_info["events"] = system.engine.events_run
    # Host cost of building one system (informational, no gate): every
    # system of a preset shares its operating-point table.
    config = cannon_lake_i3_8121u()
    build_us = []
    for _ in range(51):
        start = time.perf_counter()
        System(config)
        build_us.append((time.perf_counter() - start) * 1e6)
    benchmark.extra_info["system_build_us"] = round(
        statistics.median(build_us), 1)
    # The collector's cadence: objects left to the cyclic GC drive it.
    # Informational only; the count differs between Python versions.
    gen0 = gc.get_stats()[0]["collections"]
    one_transfer()
    benchmark.extra_info["gc_gen0_collections"] = (
        gc.get_stats()[0]["collections"] - gen0)
    # Bytes the System of one finished transfer keeps alive (its traces,
    # rail history and pending events), by tracemalloc.  Informational.
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    finished = one_transfer()[0]
    gc.collect()
    benchmark.extra_info["retained_system_bytes"] = (
        tracemalloc.get_traced_memory()[0] - before)
    tracemalloc.stop()
    del finished
    # Start-up of a fresh interpreter that writes no bytecode, as the
    # CLI and the e2e set-up probes run.  Informational.
    benchmark.extra_info["cold_import_s"] = round(cold_import_seconds(), 4)
    assert report.ber == 0.0
    # The event count of this transfer is deterministic; more events
    # mean the simulator does more work for the same result.
    assert system.engine.events_run <= 189
    assert simulated_s > 0.01  # really simulated multiple milliseconds
