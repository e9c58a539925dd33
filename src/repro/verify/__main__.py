"""``python -m repro.verify`` — the full verification gate.

Default run order (each stage but the report independently skippable)::

    lint          AST lint of src/repro (repro.verify.lint)
    differential  fast path vs reference equivalence checks
    goldens       canonical scenarios vs committed golden digests
    report        a fresh paper report vs the committed REPORT.md
    audit         hash-seed / worker-count / cache-state variations

Exit status is 0 only when every selected stage passes.  Other modes:

* ``--update-goldens`` regenerates the committed goldens (run this when
  a change is *supposed* to move the physics, and review the diff);
* ``--compute NAME`` prints exactly ``NAME <digest>`` — the auditor's
  fresh-interpreter probe;
* ``--list`` shows the scenario registry.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.verify.audit import audit_all
from repro.verify.differential import run_all as run_differential
from repro.verify.goldens import check_all, update_goldens
from repro.verify.lint import Report, lint_tree
from repro.verify.report import check_report
from repro.verify.scenarios import SCENARIOS, compute_digest, scenario_names


def _build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.verify`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Golden-trace verification: lint, differential checks, "
                    "golden regression, determinism audit.")
    parser.add_argument("--list", action="store_true",
                        help="list canonical scenarios and exit")
    parser.add_argument("--compute", metavar="NAME",
                        help="print 'NAME <digest>' for one scenario and "
                             "exit (used by the determinism audit)")
    parser.add_argument("--update-goldens", action="store_true",
                        help="regenerate the committed golden files from "
                             "current sources")
    parser.add_argument("--scenario", action="append", metavar="NAME",
                        help="restrict goldens/audit to this scenario "
                             "(repeatable)")
    parser.add_argument("--goldens-dir", type=Path, default=None,
                        help="override the goldens directory "
                             "(default: tests/goldens, or "
                             "$REPRO_GOLDENS_DIR)")
    parser.add_argument("--waivers", type=Path, default=None,
                        help="lint waiver file "
                             "(default: tests/lint_waivers.txt)")
    parser.add_argument("--skip-lint", action="store_true",
                        help="skip the AST lint stage")
    parser.add_argument("--skip-differential", action="store_true",
                        help="skip the differential checks")
    parser.add_argument("--skip-goldens", action="store_true",
                        help="skip the golden regression check")
    parser.add_argument("--skip-audit", action="store_true",
                        help="skip the determinism audit")
    parser.add_argument("--no-subprocess-audit", action="store_true",
                        help="audit without the fresh-interpreter "
                             "hash-seed runs (faster; runner/cache "
                             "variations only)")
    return parser


def _render_lint(report: Report) -> str:
    """The lint stage's indented findings and unused-waiver errors."""
    lines = [finding.render() for finding in report.findings]
    for waiver in report.unused_waivers:
        lines.append(f"error: unused waiver '{waiver.render()}' "
                     f"matches nothing; delete it")
    if not lines:
        return "  lint clean"
    return "\n".join(f"  {line}" for line in lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the verification gate; returns a process exit code."""
    args = _build_parser().parse_args(argv)

    if args.list:
        for scenario in SCENARIOS:
            runner = "runner-aware" if scenario.supports_runner else "serial"
            print(f"{scenario.name:<18} [{runner}]  {scenario.description}")
        return 0

    if args.compute:
        print(f"{args.compute} {compute_digest(args.compute)}")
        return 0

    names = args.scenario if args.scenario else None

    if args.update_goldens:
        for path in update_goldens(names, goldens_dir=args.goldens_dir):
            print(f"wrote {path}")
        return 0

    failures: List[str] = []

    if not args.skip_lint:
        print("== lint ==")
        report = lint_tree(waivers_path=args.waivers)
        print(_render_lint(report))
        print(f"  ({len(report.waived)} waived)")
        if not report.ok:
            failures.append(
                f"lint: {len(report.findings)} violation(s), "
                f"{len(report.unused_waivers)} unused waiver(s)")

    if not args.skip_differential:
        print("== differential ==")
        checks = run_differential()
        for check in checks:
            print(check.render())
        bad = [check.name for check in checks if not check.ok]
        if bad:
            failures.append(f"differential: {', '.join(bad)}")

    baselines = {}
    if not args.skip_goldens:
        print("== goldens ==")
        checks = check_all(names, goldens_dir=args.goldens_dir)
        for check in checks:
            print(check.render())
            baselines[check.scenario] = check.actual_digest
        bad = [check.scenario for check in checks if not check.ok]
        if bad:
            failures.append(f"goldens: {', '.join(bad)}")

    print("== report ==")
    check = check_report()
    print(check.render())
    if not check.ok:
        failures.append("report: REPORT.md differs from a fresh report")

    if not args.skip_audit:
        print("== determinism audit ==")
        report = audit_all(
            names, baselines=baselines,
            subprocess_checks=not args.no_subprocess_audit)
        print(report.render())
        if not report.ok:
            failures.append(
                f"audit: {len(report.divergences)} divergence(s)")

    if failures:
        print("VERIFY FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("verify: all stages passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
