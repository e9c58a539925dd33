"""Package entry point: ``python -m repro`` runs a short live demo.

Transfers a message over each of the three IChannels on a simulated
Cannon Lake part and prints the decoded payloads — the fastest way to
see the reproduction work.  ``--faults SPEC`` attaches fault models
from :mod:`repro.faults` (try ``--faults default``) and ``--adaptive``
routes each message through the adaptive session — together they demo
the resilience story from docs/FAULTS.md.  ``--scenario NAME`` runs a
named topology from the declarative scenario library instead (see
docs/SCENARIOS.md and ``python -m repro.scenarios list``).
``--mitigation-matrix`` runs the attacker-vs-defender evaluation matrix
(optionally exporting ``--matrix-csv``/``--matrix-json``; see
docs/MITIGATIONS.md), on a process pool with ``--jobs N`` and cached
under ``--cache-dir PATH`` (see :mod:`repro.runner`).  For the full
paper regeneration use ``python -m repro.analysis.report``.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Optional, Sequence, Tuple

from repro import cannon_lake_i3_8121u
from repro.core import AdaptiveConfig, CovertSession, SessionConfig
from repro.errors import ConfigError, ProtocolError
from repro.faults import parse_fault_spec
from repro.obs import Tracer, tracing, write_chrome_trace, write_metrics_json
from repro.runner import ResultCache, SweepRunner
from repro.scenarios import baseline_channel


def _demo_transfer(kind: str, message: bytes,
                   fault_spec: str = "",
                   adaptive: bool = False) -> Tuple[bytes, float, float]:
    """One demo transfer on ``baseline_{kind}``: (received, ber, bps).

    With a non-empty ``fault_spec`` the named fault models are attached
    before the transfer; ``adaptive`` routes the message through the
    adaptive :class:`CovertSession` instead of a bare transfer.
    """
    channel = baseline_channel(kind, faults=fault_spec)
    if adaptive:
        report = CovertSession(channel, SessionConfig(
            max_retries=8, adaptive=AdaptiveConfig())).send(message)
        received = report.delivered if report.ok else report.best_effort
        return received, report.residual_ber, report.goodput_bps
    try:
        report = channel.transfer(message)
    except ProtocolError:
        return b"", 1.0, 0.0
    return report.received, report.ber, report.throughput_bps


def _cmd_mitigation_matrix(args: argparse.Namespace) -> int:
    """Run the mitigation matrix and print/export its report.

    Prints the markdown verdict grid, the per-defender cost lines and
    the acceptance summaries (channels each paper recipe defeats,
    adaptive-dominance shortfalls); writes CSV/JSON exports when asked.
    Returns 1 when the adaptive tier fails to dominate plain ARQ —
    the property the CI smoke job gates on.
    """
    from repro.mitigations.matrix import run_matrix, smoke_matrix

    cache = ResultCache(root=args.cache_dir) if args.cache_dir else None
    runner = SweepRunner(jobs=args.jobs or 1, cache=cache)
    if args.mitigation_matrix == "smoke":
        report = smoke_matrix(runner=runner)
    else:
        report = run_matrix(runner=runner)
    print(f"mitigation matrix: {len(report.attackers)} attackers x "
          f"{len(report.defenders)} defenders "
          f"({len(report.cells)} cells)\n")
    print(report.markdown_table())
    print("defender costs (victim workload):")
    for cost in report.costs:
        print(f"  {cost.defender:20s} runtime {cost.runtime_overhead:+7.2%}"
              f"  power {cost.power_overhead:+7.2%}")
    for defender in ("per_core_ldo", "improved_throttling", "secure_mode"):
        if defender in report.defenders:
            killed = ", ".join(sorted(report.channels_defeated(defender)))
            print(f"{defender} defeats: {killed or 'nothing'}")
    shortfalls = report.adaptive_shortfalls()
    if shortfalls:
        print("\nADAPTIVE SHORTFALLS (adaptive should dominate arq):")
        for line in shortfalls:
            print(f"  {line}")
    if args.matrix_csv:
        report.write_csv(args.matrix_csv)
        print(f"\ncsv: {args.matrix_csv}")
    if args.matrix_json:
        report.write_json(args.matrix_json)
        print(f"json: {args.matrix_json}")
    return 1 if shortfalls else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the three channels end to end and print a one-line summary each."""
    parser = argparse.ArgumentParser(
        epilog="Verification gate: python -m repro.verify "
               "(goldens, determinism audit, lint; see docs/VERIFICATION.md). "
               "Full paper regeneration: python -m repro.analysis.report.",
        prog="python -m repro",
        description="IChannels reproduction demo (three covert channels).")
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="with --mitigation-matrix, worker processes for the cells "
             "(default: 1, serial)")
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="with --mitigation-matrix, cache cell results under PATH "
             "(default: no cache)")
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a Chrome trace (chrome://tracing) of the demo to PATH")
    parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write counters and latency histograms as JSON to PATH")
    parser.add_argument(
        "--faults", default="", metavar="SPEC",
        help="inject faults, e.g. 'default' or "
             "'slot-jitter:sigma_us=2;rail-jitter' (see docs/FAULTS.md)")
    parser.add_argument(
        "--adaptive", action="store_true",
        help="send through the adaptive session (re-calibration, "
             "backoff, two-level degradation) instead of bare transfers")
    parser.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="run a named scenario from the declarative library instead "
             "of the demo (see `python -m repro.scenarios list` and "
             "docs/SCENARIOS.md)")
    parser.add_argument(
        "--mitigation-matrix", nargs="?", const="full", default=None,
        choices=("full", "smoke"), metavar="GRID",
        help="run the attacker-vs-defender mitigation matrix instead of "
             "the demo ('full' = 9x7, 'smoke' = the 3x3 CI corner; see "
             "docs/MITIGATIONS.md)")
    parser.add_argument(
        "--matrix-csv", default=None, metavar="PATH",
        help="with --mitigation-matrix, also write the cell table as CSV")
    parser.add_argument(
        "--matrix-json", default=None, metavar="PATH",
        help="with --mitigation-matrix, also write the canonical report "
             "document as JSON")
    args = parser.parse_args(list(argv) if argv is not None else [])
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.mitigation_matrix is not None:
        return _cmd_mitigation_matrix(args)
    if (args.matrix_csv or args.matrix_json):
        parser.error("--matrix-csv/--matrix-json need --mitigation-matrix")
    if args.jobs is not None or args.cache_dir:
        parser.error("--jobs/--cache-dir need --mitigation-matrix")
    if args.scenario is not None:
        from repro.scenarios.__main__ import _cmd_run
        try:
            return _cmd_run(args.scenario)
        except ConfigError as exc:
            parser.error(f"--scenario: {exc}")
    if args.faults:
        try:
            injector = parse_fault_spec(args.faults)
        except ConfigError as exc:
            parser.error(f"--faults: {exc}")
        print(f"faults: {injector.describe()}")

    message = b"IChannels"
    print(f"IChannels demo on a simulated {cannon_lake_i3_8121u().name} "
          f"({cannon_lake_i3_8121u().codename})")
    print(f"secret: {message!r}\n")
    labels = (
        ("same hardware thread ", "thread"),
        ("across SMT threads   ", "smt"),
        ("across physical cores", "cores"),
    )
    tracer: Optional[Tracer] = None
    if args.trace or args.metrics:
        tracer = Tracer(events=args.trace is not None)
    with (tracing(tracer) if tracer is not None
          else contextlib.nullcontext()):
        results = [_demo_transfer(kind, message, args.faults, args.adaptive)
                   for _, kind in labels]
    failures = 0
    for (label, _), (received, ber, bps) in zip(labels, results):
        ok = received == message
        failures += 0 if ok else 1
        print(f"  {label}: {received!r}  "
              f"BER={ber:.3f}  {bps:,.0f} bit/s  "
              f"[{'OK' if ok else 'FAILED'}]")
    if tracer is not None:
        if args.trace:
            trace = write_chrome_trace(tracer, args.trace)
            print(f"\ntrace: {args.trace} "
                  f"({len(trace['traceEvents'])} events; load in "
                  f"chrome://tracing or https://ui.perfetto.dev)")
        if args.metrics:
            write_metrics_json(tracer, args.metrics)
            print(f"metrics: {args.metrics}")
    print("\nSee `python -m repro.analysis.report` for every regenerated "
          "table and figure.")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
