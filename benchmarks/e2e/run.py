"""The repository benchmark: end-to-end metrics and an outside-in layer trace.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--trace [0|1]] [--json OUT]

Each workload runs in its own fresh interpreter, one after another.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--workload`` it
holds that workload's metrics; without, every declared workload runs
and the metric names are prefixed by the workload
(``transfer.op_p50_ms``).  Without ``--trace`` the metrics are the
end-to-end ones declared in ``BENCHMARK.json``; with ``--trace 1`` they
are the per-layer ones (see ``layertrace.py``).  ``--json OUT`` writes
the full record (metrics, model outputs and the host-drift sentinel)
for ``compare.py``.

An untraced run measures for ``run_seconds`` from ``BENCHMARK.json``.
``--seconds`` is accepted only with that value, so that every run
measures the same amount of time.  Host times are reported at the
reference host's speed (:class:`HostGauge`).

``BENCHMARK.json`` is the single source of truth for metric names,
units, directions and bounds: the run fails if it would emit a metric
the file does not declare or miss one it does.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional

from layertrace import LAYERS, LayerTracer
from workloads import DEFAULT_SEED, WORKLOADS, Outcome, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5
#: Seconds one set-up interpreter may take.
SETUP_TIMEOUT_S = 30
#: A workload interpreter is abandoned after this many ``run_seconds``.
CHILD_TIMEOUT_RUNS = 6
#: Median time of one gauge unit on the reference host (2-vCPU Xeon VM,
#: Python 3.11, numpy 2.4) when no other tenant loads it.  Host times
#: are reported at this speed; any constant gives the same ratios.
CALIB_REF_MS = 17.5
#: Least time between two gauge samples while a workload runs.
CALIB_EVERY_S = 0.5
#: Gauge units timed before and after a workload (the drift sentinel),
#: and by each set-up interpreter.
CALIB_UNITS = 5


# -- BENCHMARK.json ------------------------------------------------------------

def load_spec(path: Path = SPEC_PATH) -> Dict[str, Any]:
    """Read BENCHMARK.json and check every name against the naming rule."""
    spec = json.loads(path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    bad = [n for n in names if not NAME_RE.fullmatch(n)]
    if bad:
        raise ValueError(f"BENCHMARK.json names break [A-Za-z0-9_.-]+: {bad}")
    if len(names) != len(set(names)):
        raise ValueError("BENCHMARK.json repeats a name")
    return spec


def declared(spec: Dict[str, Any], trace: bool) -> Dict[str, Dict[str, Any]]:
    """The metrics one mode must emit, by name."""
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


# -- measurement inside the workload interpreter -------------------------------

class HostGauge:
    """Host speed, read by timing a fixed pure-Python plus numpy unit.

    The machine is shared, and other tenants slow every instruction by
    10-50 % in bursts of seconds.  So while a workload runs, a unit is
    timed between steps, at most every CALIB_EVERY_S, and host times are
    scaled by ``CALIB_REF_MS / median(unit times)`` (:meth:`scale`).
    ``gauge_check.py`` measures how closely the unit tracks the
    simulator.  The bursts of :meth:`edge` before and after a workload
    are the drift sentinel only.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._data = np.random.default_rng(0).random(200_000)
        self.samples: List[float] = []
        self._last = float("-inf")

    def unit(self) -> float:
        """Milliseconds of one work unit."""
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        self._np.sort(self._data)
        self._np.fft.rfft(self._data)
        return (time.perf_counter() - start) * 1e3

    def edge(self) -> float:
        """Median of a burst of units."""
        return statistics.median(self.unit() for _ in range(CALIB_UNITS))

    def between_steps(self) -> None:
        """Sample a unit if the last sample is older than CALIB_EVERY_S."""
        if time.perf_counter() - self._last >= CALIB_EVERY_S:
            self.samples.append(self.unit())
            self._last = time.perf_counter()

    def scale(self) -> float:
        """Factor taking this run's host times to the reference speed."""
        return CALIB_REF_MS / statistics.median(self.samples)


class SimClock:
    """Simulated time advanced by every engine, counted from outside.

    Wraps ``Engine.run_until``/``Engine.run`` (a few calls per
    operation), so simulator throughput is measured without tracing.
    """

    def __init__(self) -> None:
        self.ns = 0.0
        self._saved: List[tuple] = []

    def __enter__(self) -> "SimClock":
        from repro.soc.engine import Engine

        for name in ("run_until", "run"):
            original = Engine.__dict__[name]

            def advancing(engine: Any, *args: Any, _fn: Any = original,
                          **kwargs: Any) -> Any:
                before = engine.now
                try:
                    return _fn(engine, *args, **kwargs)
                finally:
                    self.ns += engine.now - before

            self._saved.append((Engine, name, original))
            setattr(Engine, name, functools.wraps(original)(advancing))
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def hd_quantile(values: List[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile of ``values``.

    A beta-weighted mean of every order statistic.  Session times are
    multimodal (one cluster per attempt count), and a plain median that
    falls between two clusters jumps across the gap when a few ops move
    by a percent; the weighted mean moves smoothly.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = np.linspace(0.0, 1.0, 20001)
    mid = (grid[:-1] + grid[1:]) / 2
    log_pdf = (a - 1) * np.log(mid) + (b - 1) * np.log1p(-mid)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))])
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf / cdf[-1]))
    return float(weights @ x)


class Phase:
    """Totals of one phase of a run (untraced or traced)."""

    def __init__(self) -> None:
        self.op_s: List[float] = []
        #: Cycle position (input) of each entry of ``op_s``.
        self.op_input: List[int] = []
        #: Simulated ns of each input's op (the same on every repeat).
        self.sim_ns: Dict[int, float] = {}
        self.rerun_s: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.counters: Counter = Counter()
        self.rerun_counters: Counter = Counter()
        #: Outcomes of the prefix's ops (the model summary's input).
        self.models: List[Outcome] = []
        #: Model output of each position's first run.
        self.first: Dict[int, Any] = {}
        self.layers: Dict[str, Counter] = {
            key: Counter() for key in ("self_s", "calls", "counts")}


def run_phase(workload: Any, ctx: Any, steps: list, prefix: int,
              seconds: float, clock: SimClock, gauge: HostGauge,
              reference: Optional[Dict[int, Any]] = None,
              tracer: Optional[LayerTracer] = None) -> Phase:
    """Run ``steps`` in order, cycling, for ``seconds``.

    No step starts that would end after ``seconds`` if it took as long
    as its position's last run, except that the first ``prefix`` steps
    always run: their outcomes are the model summary, which must not
    depend on host speed.  Each step's model output must equal the
    reference for its position (the position's first output in this
    phase, or ``reference`` when given), so a step that behaves
    differently on a repeat -- or under tracing -- counts as failed.
    """
    phase = Phase()
    last_s: Dict[int, float] = {}
    start = time.perf_counter()
    done = 0
    while done < prefix or (time.perf_counter() - start
                            + last_s.get(done % len(steps), 0.0) < seconds):
        position = done % len(steps)
        kind, index = steps[position]
        gauge.between_steps()
        workload.prepare(ctx, kind, index)
        before = tracer.snapshot() if tracer is not None else None
        sim_before = clock.ns
        began = time.perf_counter()
        try:
            result = workload.run(ctx, kind, index)
            error = None
        except Exception as exc:  # an op that raises is a failed op
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = last_s[position] = time.perf_counter() - began
        sim_ns = clock.ns - sim_before
        if tracer is not None and kind == "op":
            _add_layer_delta(phase, before, tracer.snapshot())
        phase.attempted += 1
        if error is None:
            outcome = workload.check(ctx, kind, index, result)
        else:
            outcome = Outcome(ok=False, note=error)
        expected = (reference if reference is not None
                    else phase.first).get(position)
        phase.first.setdefault(position, outcome.model)
        if expected is not None and outcome.model != expected:
            outcome.ok = False
            outcome.note = outcome.note or "output differs on repeat"
        if not outcome.ok:
            phase.failed += 1
            if len(phase.notes) < 5:
                phase.notes.append(f"{kind} {index}: {outcome.note}")
        if kind == "op":
            phase.op_s.append(elapsed)
            phase.op_input.append(position)
            phase.sim_ns[position] = sim_ns
            if done < prefix:
                phase.counters.update(outcome.counters)
                phase.models.append(outcome)
        else:
            phase.rerun_s.append(elapsed)
            if done < prefix:
                phase.rerun_counters.update(outcome.counters)
        done += 1
    return phase


def _add_layer_delta(phase: Phase, before: Dict[str, Any],
                     after: Dict[str, Any]) -> None:
    for key in ("self_s", "calls", "counts"):
        for name, value in after[key].items():
            phase.layers[key][name] += value - before[key].get(name, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def model_summary(phase: Phase) -> Dict[str, Any]:
    """Deterministic model outputs of the prefix (compared exactly)."""
    outcomes = phase.models
    bers = [o.ber for o in outcomes if o.ber is not None]
    bps = [o.covert_bps for o in outcomes if o.covert_bps is not None]
    return {
        "error_rate": _ratio(phase.failed, phase.attempted),
        "ber": statistics.fmean(bers) if bers else None,
        "covert_bps": statistics.fmean(bps) if bps else None,
        "digest": digest([o.model for o in outcomes]),
    }


def end_to_end_metrics(phase: Phase, scale: float) -> Dict[str, float]:
    """The untraced run's metrics (``setup_s`` is added by the parent).

    Latency percentiles run over the distinct inputs the run reached,
    each taken at its median over the run's repeats: the spread they
    show is the inputs', not the host's.  A one-input workload's p90 is
    its p50.
    """
    repeats: Dict[int, List[float]] = {}
    for position, seconds in zip(phase.op_input, phase.op_s):
        repeats.setdefault(position, []).append(seconds)
    host_s = [statistics.median(v) * scale for v in repeats.values()]
    op_ms = [s * 1e3 for s in host_s]
    sim_s = sum(phase.sim_ns[p] for p in repeats) / 1e9
    return {
        "op_p50_ms": hd_quantile(op_ms, 0.5),
        "op_p90_ms": hd_quantile(op_ms, 0.9),
        "sim_s_per_host_s": sim_s / sum(host_s),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(base: Phase, traced: Phase, scale: float,
                  calib: List[float]) -> Dict[str, float]:
    """Per-layer metrics of a traced run, per traced operation."""
    ops = len(traced.op_s)
    counts = traced.layers["counts"]
    counters = traced.counters
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_op"] = (
            traced.layers["self_s"][layer] * 1e3 * scale / ops)
        metrics[f"{layer}.calls_per_op"] = traced.layers["calls"][layer] / ops
    events = counts["engine.events"] / ops
    base_mean_us = statistics.fmean(base.op_s) * 1e6 * scale
    metrics.update({
        "engine.events_per_op": events,
        "engine.scheduled_per_op": counts["engine.scheduled"] / ops,
        "engine.event_yield": _ratio(counts["engine.events"],
                                     counts["engine.scheduled"]),
        "engine.host_us_per_event": _ratio(base_mean_us, events),
        "trace.records_per_op": counts["trace.records"] / ops,
        "trace.record_yield": _ratio(counts["trace.appends"],
                                     counts["trace.records"]),
        "thermal.advances_per_op": counts["thermal.advances"] / ops,
        "pmu.up_requests_per_op": counts["pmu.up_requests"] / ops,
        "pmu.throttle_queries_per_op": counts["pmu.throttle_queries"] / ops,
        "vr.commands_per_op": counts["vr.commands"] / ops,
        "daq.samples_per_op": counts["daq.samples"] / ops,
        "session.attempts_per_op": counters["session.attempts"] / ops,
        "session.recalibrations_per_op":
            counters["session.recalibrations"] / ops,
        "faults.events_per_op": counters["faults.events"] / ops,
        "runner.tasks_per_op": counters["runner.tasks"] / ops,
        "runner.cache_hit_ratio": _ratio(
            traced.rerun_counters["runner.cache_hits"],
            traced.rerun_counters["runner.tasks"]),
        "tracing.overhead_ratio": (statistics.median(traced.op_s)
                                   / statistics.median(base.op_s)),
        "tracing.coverage": _ratio(sum(traced.layers["self_s"].values()),
                                   sum(traced.op_s)),
        "host.calib_ms": statistics.median(calib),
    })
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool,
            cycle_ops: Optional[int] = None) -> Dict[str, Any]:
    """Run one workload in this interpreter and return its record.

    ``cycle_ops`` truncates the cycle to its first steps (the
    self-tests' short slices).  The untraced run cycles through the
    inputs for ``seconds``.  The traced run ignores ``seconds``: it runs
    the workload's prefix (:attr:`Workload.prefix`) once untraced and
    then once traced.  The untraced pass gives the reference outputs
    the traced pass must reproduce exactly, and the times the overhead
    ratio divides by; a fixed prefix keeps every work counter exact.
    """
    workload = WORKLOADS[name]
    ctx = workload.build(seed)
    steps = workload.steps(ctx)[:cycle_ops]
    prefix = min(workload.prefix, len(steps))
    gauge = HostGauge()
    calib = [gauge.edge()]
    try:
        with SimClock() as clock:
            if trace:
                base = run_phase(workload, ctx, steps[:prefix], prefix, 0,
                                 clock, gauge)
                with LayerTracer() as tracer:
                    traced = run_phase(workload, ctx, steps[:prefix], prefix,
                                       0, clock, gauge, reference=base.first,
                                       tracer=tracer)
                phases = [base, traced]
            else:
                base = run_phase(workload, ctx, steps, prefix, seconds, clock,
                                 gauge)
                phases = [base]
    finally:
        workload.close(ctx)
    calib.append(gauge.edge())
    scale = gauge.scale()
    record = {
        "workload": name, "seed": seed, "seeded": workload.seeded,
        "seconds": seconds, "trace": int(trace),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "notes": [n for p in phases for n in p.notes][:5],
        "ops": len(phases[-1].op_s),
        "model": model_summary(base),
        "host": {"calib_ms": calib, "samples": len(gauge.samples),
                 "scale": scale},
        "gated": {},
    }
    if trace:
        record["metrics"] = layer_metrics(base, traced, scale, calib)
    else:
        record["metrics"] = end_to_end_metrics(base, scale)
        if base.rerun_s:
            record["gated"]["cached_rerun_ms"] = (
                statistics.median(base.rerun_s) * 1e3 * scale)
    return record


def setup_probe(name: str, seed: int) -> Dict[str, float]:
    """Build a workload's inputs, then read the host gauge."""
    WORKLOADS[name].build(seed)
    start = time.perf_counter()
    unit_ms = HostGauge().edge()
    return {"gauge_s": time.perf_counter() - start, "unit_ms": unit_ms}


# -- the parent: set-up probes, workload interpreters, validation --------------

def child_env() -> Dict[str, str]:
    """Environment of every interpreter the benchmark starts."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
                "PYTHONDONTWRITEBYTECODE": "1"})
    return env


def _interpreter(args: List[str], timeout: float) -> str:
    """Run this script in a fresh interpreter; its standard output."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())] + args,
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {done.returncode}:\n"
                           f"{done.stderr.strip()[-2000:]}")
    return done.stdout


def setup_seconds(name: str, seed: int) -> Dict[str, List[float]]:
    """Set-up times of fresh interpreters, and each one's speed scale.

    Each probe starts an interpreter, imports the workload's layers and
    builds its inputs.  The gauge units it times afterwards are taken
    off its wall time and give its scale to the reference speed.
    """
    raw, scales = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        probe = json.loads(_interpreter(
            ["--setup-probe", "--workload", name, "--seed", str(seed)],
            timeout=SETUP_TIMEOUT_S))
        raw.append(time.perf_counter() - start - probe["gauge_s"])
        scales.append(CALIB_REF_MS / probe["unit_ms"])
    return {"raw_s": raw, "scale": scales}


def run_workload(spec: Dict[str, Any], name: str, seed: int,
                 trace: bool) -> Dict[str, Any]:
    """Measure one workload in a fresh interpreter and validate names."""
    seconds = spec["run_seconds"]
    setup = None if trace else setup_seconds(name, seed)
    output = _interpreter(
        ["--child", "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        timeout=CHILD_TIMEOUT_RUNS * seconds)
    record = json.loads(output.strip().splitlines()[-1])
    if setup is not None:
        record["metrics"]["setup_s"] = statistics.median(
            s * k for s, k in zip(setup["raw_s"], setup["scale"]))
        record["setup_samples"] = setup
    wanted = declared(spec, trace)
    emitted = set(record["metrics"])
    if emitted != set(wanted):
        raise RuntimeError(
            f"metric names differ from BENCHMARK.json: undeclared "
            f"{sorted(emitted - set(wanted))}, missing "
            f"{sorted(set(wanted) - emitted)}")
    record["metrics"] = {
        k: {"value": record["metrics"][k], "unit": wanted[k]["unit"]}
        for k in wanted}
    record["correct"] = record["failed"] == 0
    return record


def result_line(records: List[Dict[str, Any]], prefixed: bool) -> str:
    """The one-line JSON result a run ends with.

    With ``prefixed`` each metric name is prefixed by its workload, so
    one line holds every workload's metrics.
    """
    metrics = {}
    for record in records:
        for key, value in record["metrics"].items():
            metrics[f"{record['workload']}.{key}" if prefixed else key] = value
    return json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="must equal run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--json", default=None, metavar="OUT")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    if args.child:
        print(json.dumps(measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace))))
        return 0

    # SIGTERM unwinds like an exception, so subprocess.run kills and
    # reaps the interpreter it is waiting on instead of orphaning it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{names}")
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds must equal run_seconds in BENCHMARK.json "
                     f"({spec['run_seconds']})")

    seed = args.seed if args.seed is not None else DEFAULT_SEED
    records = []
    for name in [args.workload] if args.workload else names:
        try:
            record = run_workload(spec, name, seed, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 3
        records.append(record)
        for note in record["notes"]:
            print(f"{name}: failed {note}", file=sys.stderr)
        print(f"# {name}: seed {seed}, {record['ops']} ops, "
              f"{'correct' if record['correct'] else 'FAILED'}")
    if args.json:
        Path(args.json).write_text(
            json.dumps(records[0] if args.workload else records, indent=1),
            encoding="utf-8")
    print(result_line(records, prefixed=not args.workload))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
