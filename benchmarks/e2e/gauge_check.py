"""Check that the host gauge tracks the simulator's own slowdowns.

Usage (from the repository root)::

    PYTHONPATH=src python3 benchmarks/e2e/gauge_check.py [SECONDS]

For SECONDS (default 120) it alternates one fixed operation -- the same
16-byte IccThread transfer on a fresh Cannon Lake system -- with one
:class:`run.HostGauge` unit.  The operation never changes, so every
change in its time is the host's.  For each 5 s window it prints the
operation's median time and the gauge's median time.  It ends with the
windows' coefficient of variation of the raw operation time and of the
operation time divided by the gauge time.  ``run.py`` scales host times
by the gauge only because the second is far smaller than the first on
the reference host.
"""

from __future__ import annotations

import statistics
import sys
import time

from run import HostGauge

WINDOW_S = 5.0


def cv(values: list) -> float:
    return statistics.pstdev(values) / statistics.fmean(values)


def main(argv: list) -> int:
    import repro
    from repro import core

    seconds = float(argv[0]) if argv else 120.0
    gauge = HostGauge()
    windows: dict = {}
    start = time.perf_counter()
    while (now := time.perf_counter() - start) < seconds:
        began = time.perf_counter()
        system = repro.System(repro.cannon_lake_i3_8121u())
        core.IccThreadCovert(system).transfer(b"0123456789abcdef")
        op_ms = (time.perf_counter() - began) * 1e3
        windows.setdefault(int(now // WINDOW_S), []).append(
            (op_ms, gauge.unit()))
    op, unit = [], []
    print(f"{'window':>6s} {'op ms':>8s} {'unit ms':>8s}")
    for key, pairs in sorted(windows.items()):
        op.append(statistics.median(p[0] for p in pairs))
        unit.append(statistics.median(p[1] for p in pairs))
        print(f"{key:6d} {op[-1]:8.2f} {unit[-1]:8.2f}")
    print(f"CV over {len(op)} windows: raw {cv(op):.3f}, "
          f"scaled {cv([o / u for o, u in zip(op, unit)]):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
