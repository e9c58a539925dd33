"""Report stage: the committed REPORT.md must equal a fresh report.

REPORT.md is the paper-facing artifact; the goldens pin slices of the
figures, but only a full regeneration proves the whole file is still
what the simulator produces.  :func:`check_report` runs
:func:`repro.analysis.report.generate_report` and compares the result
with the committed file byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.analysis.report import generate_report

#: The command that rewrites REPORT.md from the current sources.
REGENERATE = "PYTHONPATH=src python -m repro.analysis.report -o REPORT.md"


def default_report_path() -> Path:
    """REPORT.md at the repository root (the source layout's ``src/..``)."""
    import repro

    return Path(repro.__file__).resolve().parent.parent.parent / "REPORT.md"


@dataclass(frozen=True)
class ReportCheck:
    """Outcome of comparing a fresh report with the committed file."""

    ok: bool
    detail: str

    def render(self) -> str:
        """One- or multi-line human-readable report of this check."""
        if self.ok:
            return f"  ok       REPORT.md  {self.detail}"
        return (f"  DRIFT    REPORT.md: {self.detail}\n"
                f"           regenerate with: {REGENERATE}")


def first_difference(expected: str, actual: str) -> str:
    """Where ``actual`` first departs from ``expected``, line by line."""
    old_lines = expected.splitlines(keepends=True)
    new_lines = actual.splitlines(keepends=True)
    for number, (old, new) in enumerate(zip(old_lines, new_lines), start=1):
        if old != new:
            return f"line {number}: {old!r} -> {new!r}"
    number = min(len(old_lines), len(new_lines)) + 1
    return (f"line {number}: file has {len(old_lines)} lines, "
            f"fresh report has {len(new_lines)}")


def check_report(path: Optional[Path] = None) -> ReportCheck:
    """Regenerate the report and compare it with ``path`` byte for byte."""
    path = default_report_path() if path is None else path
    if not path.is_file():
        return ReportCheck(False, f"{path} not found")
    expected = path.read_text(encoding="utf-8")
    actual = generate_report()
    if actual == expected:
        return ReportCheck(True, f"{len(actual.splitlines())} lines identical")
    return ReportCheck(False, first_difference(expected, actual))
