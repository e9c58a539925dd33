"""The analysis driver: files in, :class:`Report` out.

Orchestration order:

1. collect every ``*.py`` under the requested paths and parse each
   module exactly once;
2. build the :class:`ProjectContext` (signature table) from the parsed
   modules;
3. run the selected passes over every module, timing each pass;
4. filter to the selected rules, sort, then apply waivers.

``analyze_source`` is the single-snippet entry the fixture tests use;
``analyze_paths`` is the full-tree entry behind the CLI, the CI gate
and the ``repro.verify`` lint stage.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from repro.staticcheck.context import ModuleContext, ProjectContext
from repro.staticcheck.model import Finding, PassTiming, Report, Waiver
from repro.staticcheck.registry import expand_selection, passes_for
from repro.staticcheck.waivers import load_waivers


def default_root() -> Path:
    """The package source tree analysed by default (``src/repro``)."""
    import repro

    return Path(repro.__file__).resolve().parent


def _sort_key(finding: Finding):
    return (finding.path, finding.line, finding.rule)


def _collect_modules(paths: Sequence[Path]) -> List[ModuleContext]:
    """Parse every ``*.py`` reachable from ``paths``, once each.

    Module paths are reported relative to the argument's parent, walked
    up while it is a package, so ``src/repro``, ``src/repro/measure``
    and ``src/repro/measure/sampler.py`` all report ``repro/...`` paths
    and the waiver file matches a run over any part of the tree.
    """
    modules: List[ModuleContext] = []
    for base in paths:
        base = Path(base).resolve()
        files = sorted(base.rglob("*.py")) if base.is_dir() else [base]
        root = base.parent
        while (root / "__init__.py").is_file():
            root = root.parent
        for path in files:
            modules.append(ModuleContext.from_source(
                path.read_text(encoding="utf-8"),
                path.relative_to(root).as_posix()))
    return modules


def run_passes(modules: Sequence[ModuleContext],
               rules: Optional[Iterable[str]] = None,
               project: Optional[ProjectContext] = None,
               timings: Optional[List[PassTiming]] = None) -> List[Finding]:
    """Run the selected passes over parsed modules; sorted findings.

    ``rules`` may mix rule ids and pass names (a pass name selects all
    of its rules).  When ``timings`` is given, one :class:`PassTiming`
    per executed pass is appended to it.
    """
    if project is None:
        project = ProjectContext.build(modules)
    selected = tuple(rules) if rules is not None else None
    findings: List[Finding] = []
    for pass_obj in passes_for(selected):
        started = time.perf_counter()
        produced = [finding for module in modules
                    for finding in pass_obj.run(module, project)]
        if timings is not None:
            timings.append(PassTiming(
                pass_name=pass_obj.name,
                wall_ms=round((time.perf_counter() - started) * 1e3, 3),
                modules=len(modules), findings=len(produced)))
        findings.extend(produced)
    if selected is not None:
        wanted = set(expand_selection(selected))
        findings = [f for f in findings if f.rule in wanted]
    return sorted(findings, key=_sort_key)


def analyze_source(source: str, path: str = "<string>",
                   rules: Optional[Iterable[str]] = None) -> List[Finding]:
    """Analyse one source text under a virtual ``path``.

    The project context contains just this module, so cross-module
    signature checks see only what the snippet itself defines (plus the
    built-in ``repro.units`` conventions).
    """
    module = ModuleContext.from_source(source, path)
    return run_passes([module], rules=rules)


def analyze_paths(paths: Optional[Sequence[Path]] = None,
                  rules: Optional[Iterable[str]] = None,
                  waivers: Optional[Iterable[Waiver]] = None,
                  waivers_path: Optional[Path] = None) -> Report:
    """Full analysis of source trees with waivers applied.

    ``paths`` defaults to the installed ``repro`` package sources.
    ``waivers`` wins over ``waivers_path``; with neither given the repo
    waiver file (``tests/lint_waivers.txt``) is used when present.
    ``rules`` may mix rule ids and pass names.
    """
    roots = [Path(p) for p in paths] if paths else [default_root()]
    modules = _collect_modules(roots)
    selected = tuple(rules) if rules is not None else None
    if selected is not None:
        selected = expand_selection(selected)

    report = Report(files_analyzed=len(modules))
    findings = run_passes(modules, selected, timings=report.timings)

    if waivers is not None:
        waiver_list = list(waivers)
    else:
        waiver_list = load_waivers(waivers_path)
    # A waiver counts only where it can apply: a selected rule over an
    # analysed module.  Any such waiver that matches nothing is unused.
    waiver_list = [w for w in waiver_list
                   if (selected is None or w.rule in selected)
                   and any(w.matches_path(m.path) for m in modules)]

    used: Dict[int, bool] = {}
    for finding in findings:
        matched = False
        for index, waiver in enumerate(waiver_list):
            if waiver.matches(finding):
                used[index] = True
                matched = True
                break
        (report.waived if matched else report.findings).append(finding)
    report.unused_waivers = [
        waiver for index, waiver in enumerate(waiver_list)
        if index not in used
    ]
    return report
