"""Differential checks: fast paths must equal their reference paths.

The equivalences the codebase *claims* and this module *proves* on every
verify run:

* the vectorized :class:`~repro.measure.sampler.TraceSampler` fast path
  is **bit-identical** (not epsilon-close) to the documented scalar
  fallback, on real rail traces produced by a covert transfer;
* a :class:`~repro.core.session.CovertSession` configured with adaptive
  machinery behaves **exactly** like a plain session when no faults are
  injected — the adaptive state machine must be pay-for-what-you-use,
  never perturbing a healthy channel.

Each check returns a :class:`DiffCheck` with leaf-level mismatch lines,
rendered by ``python -m repro.verify``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core import IccCoresCovert, IccThreadCovert
from repro.core.session import AdaptiveConfig, CovertSession, SessionConfig
from repro.measure.sampler import TraceSampler
from repro.soc.config import cannon_lake_i3_8121u
from repro.soc.system import System
from repro.verify.digest import diff_documents

#: Payload the differential transfers send (small but multi-frame).
DIFF_PAYLOAD = b"\xa5\x3c\x0f\xf0\x5a\xc3"


@dataclass
class DiffCheck:
    """Outcome of one differential check."""

    name: str
    ok: bool
    #: Human-readable mismatch details (empty when ``ok``).
    detail: List[str] = field(default_factory=list)

    def render(self) -> str:
        """Multi-line human-readable report of this check."""
        head = f"  {'ok      ' if self.ok else 'MISMATCH'} {self.name}"
        if self.ok or not self.detail:
            return head
        return "\n".join([head] + [f"           {line}" for line in self.detail])


def _traced_system() -> System:
    """A fresh system with a non-trivial rail history to sample."""
    system = System(cannon_lake_i3_8121u())
    IccThreadCovert(system).transfer(DIFF_PAYLOAD[:3])
    return system


def check_sampler_bitwise() -> DiffCheck:
    """Vectorized sampling must be bit-identical to the scalar loop.

    Samples every observable signal of a post-transfer system over a
    grid that includes the exact breakpoint times, segment midpoints and
    a dense uniform sweep, through both :class:`TraceSampler` paths, and
    requires ``np.array_equal`` — any single differing bit fails.
    """
    system = _traced_system()
    signals = {
        "vcc": system.vcc_signal(),
        "icc": system.icc_signal(),
        "freq": system.freq_signal(),
    }
    detail: List[str] = []
    sampler = TraceSampler()
    for name, signal in signals.items():
        times, _ = signal.breakpoints()
        grid = np.unique(np.concatenate([
            times,
            (times[:-1] + times[1:]) / 2.0 if len(times) > 1 else times,
            np.linspace(float(times[0]), float(times[-1]), 2048),
            np.asarray([float(times[0]) - 1.0, float(times[-1]) + 1.0]),
        ]))
        scalar_view = (lambda sig: lambda t: sig(t))(signal)
        assert TraceSampler.path_for(signal) == "vectorized"
        assert TraceSampler.path_for(scalar_view) == "scalar"
        fast = sampler.evaluate(signal, grid)
        reference = sampler.evaluate(scalar_view, grid)
        if not np.array_equal(fast, reference):
            differing = np.nonzero(fast != reference)[0]
            for index in differing[:5]:
                detail.append(
                    f"{name} @ t={grid[index]!r}: vectorized "
                    f"{fast[index]!r} != scalar {reference[index]!r}")
            if len(differing) > 5:
                detail.append(f"{name}: ... and {len(differing) - 5} "
                              f"more differing samples")
    return DiffCheck(name="sampler-bitwise", ok=not detail, detail=detail)


def _session_document(adaptive: bool) -> dict:
    """A canonical record of one session send on a fresh system."""
    system = System(cannon_lake_i3_8121u())
    channel = IccCoresCovert(system)
    config = SessionConfig(adaptive=AdaptiveConfig() if adaptive else None)
    report = CovertSession(channel, config).send(DIFF_PAYLOAD)
    return {
        "payload": report.payload,
        "delivered": report.delivered,
        "best_effort": report.best_effort,
        "ok": report.ok,
        "start_ns": report.start_ns,
        "end_ns": report.end_ns,
        "recalibrations": report.recalibrations,
        "degraded": report.degraded,
        "backoff_ns": report.backoff_ns,
        "frames": [dataclasses.asdict(frame) for frame in report.frames],
    }


def check_adaptive_plain_equivalence() -> DiffCheck:
    """Adaptive session under zero faults must match the plain session.

    Runs the same payload through a plain and an adaptive session on
    fresh identical systems and compares the full session records —
    frame logs, timings, degradation state — leaf by leaf.
    """
    plain = _session_document(adaptive=False)
    adaptive = _session_document(adaptive=True)
    detail = diff_documents(plain, adaptive)
    return DiffCheck(name="adaptive-plain-equivalence",
                     ok=not detail, detail=detail)


def run_all() -> List[DiffCheck]:
    """Every differential check, in reporting order."""
    return [check_sampler_bitwise(), check_adaptive_plain_equivalence()]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.verify.differential`` — standalone report.

    Runs every differential check and optionally writes a JSON report
    (``--json PATH``).  Exit status 0 only when every check passes.
    """
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.differential",
        description="Fast-path vs reference differential checks.")
    parser.add_argument("--json", type=str, default=None, metavar="PATH",
                        help="write a machine-readable report to PATH")
    args = parser.parse_args(argv)

    checks = run_all()
    for check in checks:
        print(check.render())
    if args.json:
        report = {
            "ok": all(check.ok for check in checks),
            "checks": [
                {"name": check.name, "ok": check.ok, "detail": check.detail}
                for check in checks
            ],
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0 if all(check.ok for check in checks) else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
