"""Golden-trace verification: the reproduction's regression gate.

The simulator is fully deterministic, which makes an unusually strong
verification posture possible: every canonical scenario reduces to one
exact content digest, and *any* drift — a changed constant, a reordered
reduction, a platform difference — is a failure with a leaf-level diff,
not a tolerance judgement call.  This package implements that gate:

* :mod:`repro.verify.digest` — canonical JSON, content digests, diffs;
* :mod:`repro.verify.scenarios` — the canonical scenario registry;
* :mod:`repro.verify.goldens` — committed goldens and the check/update
  round-trip;
* :mod:`repro.verify.report` — the committed REPORT.md against a fresh
  regeneration;
* :mod:`repro.verify.audit` — determinism audit across hash seeds,
  worker counts and cache states;
* :mod:`repro.verify.differential` — fast-path vs reference-path
  equivalence checks;
* :mod:`repro.verify.bench_gate` — benchmark regression gate over
  pytest-benchmark artifacts;
* :mod:`repro.verify.lint` — the determinism lint of the sources.

Run the whole gate with ``python -m repro.verify``; see
``docs/VERIFICATION.md``.
"""

from repro.verify.audit import AuditCheck, AuditReport, audit_all, audit_scenario
from repro.verify.bench_gate import (
    BenchDelta,
    GateReport,
    compare,
    load_baseline,
    load_benchmark_medians,
    write_baseline,
)
from repro.verify.differential import (
    DiffCheck,
    check_adaptive_plain_equivalence,
    check_sampler_bitwise,
)
from repro.verify.digest import (
    canonical_json,
    content_digest,
    diff_documents,
    flatten_leaves,
    section_digests,
    summarize_array,
    summarize_breakpoints,
)
from repro.verify.goldens import (
    GoldenCheck,
    check_all,
    check_scenario,
    load_golden,
    update_goldens,
    write_golden,
)
from repro.verify.report import ReportCheck, check_report
from repro.verify.scenarios import (
    SCENARIOS,
    Scenario,
    compute_digest,
    compute_document,
    get_scenario,
    scenario_names,
)

__all__ = [
    "AuditCheck",
    "AuditReport",
    "BenchDelta",
    "DiffCheck",
    "GateReport",
    "GoldenCheck",
    "ReportCheck",
    "SCENARIOS",
    "Scenario",
    "audit_all",
    "audit_scenario",
    "canonical_json",
    "check_adaptive_plain_equivalence",
    "check_all",
    "check_report",
    "check_sampler_bitwise",
    "check_scenario",
    "compare",
    "compute_digest",
    "compute_document",
    "content_digest",
    "diff_documents",
    "flatten_leaves",
    "get_scenario",
    "load_baseline",
    "load_benchmark_medians",
    "load_golden",
    "scenario_names",
    "section_digests",
    "summarize_array",
    "summarize_breakpoints",
    "update_goldens",
    "write_baseline",
    "write_golden",
]
