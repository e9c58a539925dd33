"""Plugin-based static analysis for the simulator's own invariants.

Generic linters cannot know that ``idle_close_us`` must be converted
before comparison with ``now_ns``, that every heap entry needs a
monotone tiebreak, or that a ``SweepRunner`` task must be a picklable
module-level function.  This package encodes those project invariants
as *passes* over per-module ASTs plus a lightweight intra-function
dataflow layer, behind one driver with waivers and text/JSON/SARIF
reporters:

* :mod:`repro.staticcheck.passes.dimensional` — unit-tag dataflow
  (mixing ns with us, passing us where ns is expected, time/frequency
  division);
* :mod:`repro.staticcheck.passes.determinism` — simulated-time
  determinism (unseeded RNGs, wall-clock reads, heap tiebreaks,
  unordered-set iteration);
* :mod:`repro.staticcheck.passes.poolsafety` — process-pool safety
  (unpicklable callables, worker-side global mutation);
* :mod:`repro.staticcheck.passes.hygiene` — API hygiene (float
  equality on physics, mutable defaults, hints/docstrings).

Run it with ``python -m repro.staticcheck [paths] [--format text|json|
sarif] [--rule ID]``.  Deliberate exceptions live in one waiver file,
``tests/lint_waivers.txt``; a waiver that matches nothing fails the run,
so the file can only shrink.  The ``repro.verify`` lint stage calls
:func:`analyze_paths` with the determinism and hygiene rules its golden
digests depend on.
"""

from repro.staticcheck.context import (  # noqa: F401
    FunctionSig,
    ModuleContext,
    ProjectContext,
)
from repro.staticcheck.dataflow import (  # noqa: F401
    UnitTag,
    scan_function,
    tag_of_identifier,
)
from repro.staticcheck.model import (  # noqa: F401
    Finding,
    PassTiming,
    Report,
    Severity,
    Waiver,
)
from repro.staticcheck.registry import (  # noqa: F401
    Pass,
    Rule,
    all_passes,
    all_rules,
    expand_selection,
    get_pass,
    register,
    rule_ids,
    rule_owners,
)
from repro.staticcheck.reporters import render, to_json, to_sarif  # noqa: F401
from repro.staticcheck.runner import (  # noqa: F401
    analyze_paths,
    analyze_source,
    default_root,
)
from repro.staticcheck.waivers import (  # noqa: F401
    default_waivers_path,
    load_waivers,
    parse_waivers,
)

__all__ = [
    "Finding", "FunctionSig", "ModuleContext", "Pass", "PassTiming",
    "ProjectContext", "Report", "Rule", "Severity", "UnitTag", "Waiver",
    "all_passes", "all_rules", "analyze_paths", "analyze_source",
    "default_root", "default_waivers_path", "expand_selection",
    "get_pass", "load_waivers", "parse_waivers", "register", "render",
    "rule_ids", "rule_owners", "scan_function",
    "tag_of_identifier", "to_json", "to_sarif",
]
