"""The four workloads of the end-to-end benchmark.

Every workload is a closed loop with one client: an operation starts
when the previous one has finished.  Its inputs come from the seed
(:meth:`Workload.build`) and repeat in a fixed *cycle*, which a run
walks through for as long as it measures.  The cycle's first
:attr:`Workload.prefix` steps run in every run whatever the host speed:
the model outputs and the traced run cover exactly these, so they and
every per-op work counter repeat exactly for the same seed.  Each
operation is timed alone (:meth:`Workload.run`); preparing it and
checking its output happen outside the timed region.

Layer modules are imported inside :meth:`Workload.build` (so set-up
time covers exactly what a workload needs) and are called through their
module objects, so the outside-in tracer's wrappers are reached.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

#: Repository root (the directory holding ``src/`` and ``REPORT.md``).
ROOT = Path(__file__).resolve().parents[2]

#: Working space the benchmark may write to, inside the checkout.
WORK_DIR = ROOT / ".bench_build" / "e2e"

#: Seed used when the command line gives none.
DEFAULT_SEED = 2021


@dataclass
class Outcome:
    """The checked result of one operation."""

    ok: bool
    #: JSON-able model output; must repeat exactly for the same input.
    model: Any = None
    #: Deterministic work counts taken from the result (not the tracer).
    counters: Dict[str, int] = field(default_factory=dict)
    ber: Optional[float] = None
    covert_bps: Optional[float] = None
    note: str = ""


def digest(value: Any) -> str:
    """Short SHA-256 of a JSON-able value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    """One workload: seeded inputs, a cycle of steps, and output checks.

    A step is ``(kind, index)``: kind ``"op"`` is an operation whose time
    feeds the end-to-end latency metrics, kind ``"rerun"`` a follow-up
    the workload times separately (the matrix's warm-cache reruns).
    """

    name = ""
    #: Whether ``--seed`` changes the inputs.
    seeded = True
    #: Leading steps of the cycle that every run completes (see above).
    prefix = 1

    def build(self, seed: int) -> Any:
        """Import the layers this workload uses and make its inputs."""
        raise NotImplementedError

    def steps(self, ctx: Any) -> List[Tuple[str, int]]:
        """One cycle of steps."""
        raise NotImplementedError

    def prepare(self, ctx: Any, kind: str, index: int) -> None:
        """Untimed work before a step (default: none)."""

    def run(self, ctx: Any, kind: str, index: int) -> Any:
        """The timed step itself."""
        raise NotImplementedError

    def check(self, ctx: Any, kind: str, index: int, result: Any) -> Outcome:
        """Check a step's result against the expected output."""
        raise NotImplementedError

    def close(self, ctx: Any) -> None:
        """Release what :meth:`build` or the steps created."""


class Transfer(Workload):
    """Noise-free covert transfers on the batch-kernel recording path."""

    name = "transfer"
    #: Payloads per cycle (a multiple of the three channels).  Enough
    #: distinct payloads that the seed barely moves the latency median.
    period = 240
    prefix = 120

    def build(self, seed: int) -> Any:
        import repro
        from repro import core

        rng = random.Random(seed)
        return SimpleNamespace(
            repro=repro, core=core,
            payloads=[rng.randbytes(16) for _ in range(self.period)])

    def steps(self, ctx: Any) -> List[Tuple[str, int]]:
        return [("op", i) for i in range(self.period)]

    def _channel(self, ctx: Any, index: int) -> Any:
        return (ctx.core.IccThreadCovert, ctx.core.IccSMTcovert,
                ctx.core.IccCoresCovert)[index % 3]

    def run(self, ctx: Any, kind: str, index: int) -> Any:
        system = ctx.repro.System(ctx.repro.cannon_lake_i3_8121u())
        return self._channel(ctx, index)(system).transfer(ctx.payloads[index])

    def check(self, ctx: Any, kind: str, index: int, result: Any) -> Outcome:
        ok = result.received == ctx.payloads[index]
        return Outcome(ok=ok, model=result.fingerprint(), ber=result.ber,
                       covert_bps=result.throughput_bps,
                       note="" if ok else "decoded bytes differ from payload")


class FaultedSession(Workload):
    """Adaptive sessions under the default fault suite (eager recording)."""

    name = "faulted_session"
    #: Sessions per cycle.  A session's length depends strongly on its
    #: payload and fault draw, so a run measures distinct inputs rather
    #: than repeats of fewer: it ends before the cycle does.
    period = 480
    prefix = 48
    #: Retry budget per frame, as in the resilience experiment.
    max_retries = 8

    def build(self, seed: int) -> Any:
        import repro
        from repro import core, faults
        from repro.core import session

        rng = random.Random(seed)
        inputs = [(rng.randbytes(4), rng.randrange(2 ** 31))
                  for _ in range(self.period)]
        return SimpleNamespace(repro=repro, core=core, faults=faults,
                               session=session, inputs=inputs)

    def steps(self, ctx: Any) -> List[Tuple[str, int]]:
        return [("op", i) for i in range(self.period)]

    def run(self, ctx: Any, kind: str, index: int) -> Any:
        payload, fault_seed = ctx.inputs[index]
        system = ctx.repro.System(ctx.repro.cannon_lake_i3_8121u())
        injector = ctx.faults.parse_fault_spec(f"default:seed={fault_seed}")
        injector.attach(system)
        config = ctx.session.SessionConfig(
            max_retries=self.max_retries,
            adaptive=ctx.session.AdaptiveConfig())
        channel = ctx.core.IccCoresCovert(system)
        report = ctx.session.CovertSession(channel, config).send(payload)
        return report, injector

    def check(self, ctx: Any, kind: str, index: int, result: Any) -> Outcome:
        report, injector = result
        model = {
            "delivered": None if report.delivered is None
            else report.delivered.hex(),
            "best_effort": report.best_effort.hex(),
            "frames": [[f.attempts, f.delivered, f.raw_ber_per_attempt]
                       for f in report.frames],
            "recalibrations": report.recalibrations,
            "degraded": report.degraded,
            "start_ns": report.start_ns,
            "end_ns": report.end_ns,
        }
        counters = {
            "session.attempts": report.total_attempts,
            "session.recalibrations": report.recalibrations,
            "faults.events": sum(injector.event_counts().values()),
        }
        # A session may end undelivered -- retries exhausted, or a CRC-8
        # false accept -- and that is a model output (its residual BER),
        # not a failed op.  The op fails if the report loses track of
        # the payload.
        ok = len(report.best_effort) == len(ctx.inputs[index][0])
        return Outcome(ok=ok, model=model, counters=counters,
                       ber=report.residual_ber,
                       covert_bps=report.goodput_bps,
                       note="" if ok else "best-effort bytes lost the payload")


class Report(Workload):
    """The full paper report, checked byte for byte against REPORT.md."""

    name = "report"
    seeded = False

    def build(self, seed: int) -> Any:
        from repro.analysis import report

        reference = (ROOT / "REPORT.md").read_text(encoding="utf-8")
        return SimpleNamespace(report=report, reference=reference)

    def steps(self, ctx: Any) -> List[Tuple[str, int]]:
        return [("op", 0)]

    def run(self, ctx: Any, kind: str, index: int) -> Any:
        return ctx.report.generate_report()

    def check(self, ctx: Any, kind: str, index: int, result: Any) -> Outcome:
        ok = result == ctx.reference
        return Outcome(ok=ok, model=digest(result),
                       note="" if ok else "report differs from REPORT.md")


def parse_verdict_grid(text: str) -> Dict[Tuple[str, str], Tuple[str, str]]:
    """``(attacker, defender) -> (verdict, capacity)`` from the docs grid.

    Reads the "Headline grid" table of docs/MITIGATIONS.md, whose cells
    read ``open (2667)`` or ``defeated``; capacity is ``""`` when the
    cell gives none.
    """
    lines = text.splitlines()
    try:
        start = next(i for i, line in enumerate(lines)
                     if line.startswith("## Headline grid"))
        header = next(i for i in range(start, len(lines))
                      if lines[i].startswith("| attacker |"))
    except StopIteration:
        raise ValueError("no headline verdict grid in the document") from None
    defenders = [c.strip() for c in lines[header].strip("|").split("|")][1:]
    grid: Dict[Tuple[str, str], Tuple[str, str]] = {}
    for line in lines[header + 2:]:
        if not line.startswith("| `"):
            break
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        attacker = cells[0].strip("`")
        for defender, cell in zip(defenders, cells[1:]):
            verdict, _, capacity = cell.partition(" (")
            grid[(attacker, defender)] = (verdict, capacity.rstrip(")"))
    return grid


class MatrixSweep(Workload):
    """The full mitigation matrix through a cached SweepRunner."""

    name = "matrix_sweep"
    seeded = False
    #: Warm reruns from the filled cache after each cold sweep.
    reruns = 5
    prefix = 1 + reruns

    def build(self, seed: int) -> Any:
        from repro import runner
        from repro.mitigations import matrix

        text = (ROOT / "docs" / "MITIGATIONS.md").read_text(encoding="utf-8")
        return SimpleNamespace(runner=runner, matrix=matrix,
                               grid=parse_verdict_grid(text),
                               cache_dir=None, sweep=None, document=None)

    def steps(self, ctx: Any) -> List[Tuple[str, int]]:
        return [("op", 0)] + [("rerun", k) for k in range(self.reruns)]

    def prepare(self, ctx: Any, kind: str, index: int) -> None:
        if kind != "op":
            return
        self.close(ctx)
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        ctx.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR)
        ctx.sweep = ctx.runner.SweepRunner(
            jobs=1, cache=ctx.runner.ResultCache(root=ctx.cache_dir))

    def run(self, ctx: Any, kind: str, index: int) -> Any:
        return ctx.matrix.run_matrix(runner=ctx.sweep)

    def check(self, ctx: Any, kind: str, index: int, result: Any) -> Outcome:
        stats = ctx.sweep.last_run
        counters = {"runner.tasks": stats.tasks,
                    "runner.cache_hits": stats.cache_hits}
        problems = []
        for cell in result.cells:
            verdict, capacity = ctx.grid.get(
                (cell.attacker, cell.defender), ("missing", ""))
            measured = f"{cell.residual_capacity_bps:.0f}"
            if cell.verdict != verdict or capacity not in ("", measured):
                problems.append(f"{cell.attacker}x{cell.defender}")
        if len(result.cells) != len(ctx.grid):
            problems.append(f"{len(result.cells)} cells for "
                            f"{len(ctx.grid)} in the docs grid")
        problems.extend(result.adaptive_shortfalls())
        document = digest(result.document())
        if kind == "op":
            ctx.document = document
        elif document != ctx.document or stats.cache_hits != stats.tasks:
            problems.append("warm rerun differs from the cold sweep")
        note = "; ".join(problems)
        return Outcome(ok=not problems, model=document, counters=counters,
                       note=note[:200])

    def close(self, ctx: Any) -> None:
        if ctx.cache_dir is not None:
            shutil.rmtree(ctx.cache_dir, ignore_errors=True)
            ctx.cache_dir = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Transfer(), FaultedSession(), Report(), MatrixSweep())
}
