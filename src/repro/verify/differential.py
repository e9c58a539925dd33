"""Differential checks: two configurations that must behave identically.

The equivalence the codebase *claims* and this module *proves* on every
verify run: a :class:`~repro.core.session.CovertSession` configured with
adaptive machinery behaves **exactly** like a plain session when no
faults are injected — the adaptive state machine must be
pay-for-what-you-use, never perturbing a healthy channel.

Each check returns a :class:`DiffCheck` with leaf-level mismatch lines,
rendered by ``python -m repro.verify``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List

from repro.core import IccCoresCovert
from repro.core.session import AdaptiveConfig, CovertSession, SessionConfig
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
    return [check_adaptive_plain_equivalence()]

