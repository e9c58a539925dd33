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
* :mod:`repro.verify.differential` — the adaptive session against the
  plain session under zero faults;
* :mod:`repro.verify.bench_gate` — benchmark regression gate over
  pytest-benchmark artifacts;
* :mod:`repro.verify.lint` — the determinism lint of the sources.

Run the whole gate with ``python -m repro.verify``; see
``docs/VERIFICATION.md``.
"""

from repro import lazy_exports

#: Every export resolves on first use: name -> defining submodule.  A
#: caller that needs one helper (the matrix's ``content_digest``) then
#: loads one submodule, not the audit, bench gate and analysis stack.
_LAZY = {
    "AuditCheck": "audit",
    "AuditReport": "audit",
    "audit_all": "audit",
    "audit_scenario": "audit",
    "BenchDelta": "bench_gate",
    "GateReport": "bench_gate",
    "compare": "bench_gate",
    "load_baseline": "bench_gate",
    "load_benchmark_medians": "bench_gate",
    "write_baseline": "bench_gate",
    "DiffCheck": "differential",
    "check_adaptive_plain_equivalence": "differential",
    "canonical_json": "digest",
    "content_digest": "digest",
    "diff_documents": "digest",
    "flatten_leaves": "digest",
    "section_digests": "digest",
    "summarize_array": "digest",
    "summarize_breakpoints": "digest",
    "GoldenCheck": "goldens",
    "check_all": "goldens",
    "check_scenario": "goldens",
    "load_golden": "goldens",
    "update_goldens": "goldens",
    "write_golden": "goldens",
    "ReportCheck": "report",
    "check_report": "report",
    "SCENARIOS": "scenarios",
    "Scenario": "scenarios",
    "compute_digest": "scenarios",
    "compute_document": "scenarios",
    "get_scenario": "scenarios",
    "scenario_names": "scenarios",
}
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)

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
