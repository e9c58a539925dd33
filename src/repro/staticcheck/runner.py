"""The analysis driver: files in, :class:`Report` out.

Orchestration order:

1. collect every ``*.py`` under the requested paths (source text only —
   parsing is deferred until a pass actually needs the AST);
2. build the :class:`ProjectContext` from per-module *facts* (signature
   table, dataclass fields), reading them from the incremental cache
   where the source hash matches;
3. run the selected passes over every module — per ``(module, pass)``
   results come from the findings cache when the source hash, pass
   version and project digest all match, from a process pool when
   ``jobs > 1``, inline otherwise;
4. filter to the selected rules, sort, then apply waivers and baseline.

``analyze_source`` is the single-snippet entry the fixture tests and
the ``repro.verify.lint`` shim use; ``analyze_paths`` is the full-tree
entry behind the CLI and CI gate.  ``--changed`` mode narrows step 3
to git-touched modules plus their name-level dependents while still
building the project tables from the whole tree.
"""

from __future__ import annotations

import re
import subprocess
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from repro.staticcheck.baseline import apply_baseline, load_baseline
from repro.staticcheck.cache import AnalysisCache, source_hash
from repro.staticcheck.context import (
    FACTS_VERSION,
    ModuleContext,
    ProjectContext,
    module_facts,
)
from repro.staticcheck.model import Finding, PassTiming, Report, Waiver
from repro.staticcheck.registry import (
    expand_selection,
    pass_version,
    passes_for,
)
from repro.staticcheck.waivers import load_waivers


def default_root() -> Path:
    """The package source tree analysed by default (``src/repro``)."""
    import repro

    return Path(repro.__file__).resolve().parent


def _sort_key(finding: Finding):
    return (finding.path, finding.line, finding.rule)


@dataclass
class _SourceRecord:
    """One collected module: identity and lazily parsed context."""

    rel: str
    abs_path: Optional[Path]
    source: str
    _ctx: Optional[ModuleContext] = None
    _hash: Optional[str] = None

    @property
    def ctx(self) -> ModuleContext:
        """The parsed :class:`ModuleContext` (parsed on first access)."""
        if self._ctx is None:
            self._ctx = ModuleContext.from_source(self.source, self.rel)
        return self._ctx

    @property
    def src_hash(self) -> str:
        """Content hash of the module source (memoised)."""
        if self._hash is None:
            self._hash = source_hash(self.source)
        return self._hash


def _collect_sources(paths: Sequence[Path]) -> List[_SourceRecord]:
    """Read every ``*.py`` reachable from ``paths`` without parsing.

    Module paths are reported relative to each argument's parent for
    directories (so ``src/repro`` reports ``repro/...``) and to the
    file's own parent directory for single files.
    """
    records: List[_SourceRecord] = []
    for base in paths:
        base = Path(base)
        if base.is_dir():
            for path in sorted(base.rglob("*.py")):
                rel = path.relative_to(base.parent).as_posix()
                records.append(_SourceRecord(
                    rel, path.resolve(),
                    path.read_text(encoding="utf-8")))
        else:
            records.append(_SourceRecord(
                base.name, base.resolve(),
                base.read_text(encoding="utf-8")))
    return records


def _collect_modules(paths: Sequence[Path]) -> List[ModuleContext]:
    """Parse every ``*.py`` reachable from ``paths`` (legacy entry)."""
    return [record.ctx for record in _collect_sources(paths)]


def run_passes(modules: Sequence[ModuleContext],
               rules: Optional[Iterable[str]] = None,
               project: Optional[ProjectContext] = None) -> List[Finding]:
    """Run the selected passes over parsed modules; sorted findings.

    ``rules`` may mix rule ids and pass names (a pass name selects all
    of its rules).
    """
    if project is None:
        project = ProjectContext.build(modules)
    selected = tuple(rules) if rules is not None else None
    findings: List[Finding] = []
    for pass_obj in passes_for(selected):
        for module in modules:
            findings.extend(pass_obj.run(module, project))
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


# -- project facts ------------------------------------------------------------

def _project_for(records: Sequence[_SourceRecord],
                 cache: Optional[AnalysisCache]) -> ProjectContext:
    """Build the cross-module context, reading cached facts when valid."""
    facts_list: List[Dict[str, Any]] = []
    for record in records:
        facts = None
        key = None
        if cache is not None:
            key = cache.facts_key(record.rel, record.src_hash, FACTS_VERSION)
            facts = cache.get_facts(key)
        if facts is None:
            facts = module_facts(record.ctx)
            if cache is not None and key is not None:
                cache.put_facts(key, facts)
        facts_list.append(facts)
    return ProjectContext.from_facts(facts_list)


# -- changed-module selection -------------------------------------------------

def _git_changed_files(anchor: Path) -> Optional[Set[Path]]:
    """Absolute paths git reports as modified or untracked, or None.

    Returns None when ``anchor`` is not inside a git work tree (the
    caller then falls back to analysing everything).
    """
    cwd = anchor if anchor.is_dir() else anchor.parent
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"], cwd=cwd,
            capture_output=True, text=True, check=True,
            timeout=30).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=cwd,
            capture_output=True, text=True, check=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    root = Path(top)
    changed: Set[Path] = set()
    for line in status.splitlines():
        if len(line) < 4:
            continue
        rel = line[3:]
        if " -> " in rel:  # rename: analyse the new location
            rel = rel.split(" -> ", 1)[1]
        changed.add((root / rel.strip().strip('"')).resolve())
    return changed


def _defined_names(record: _SourceRecord) -> Set[str]:
    """Top-level def/class names a changed module exports."""
    names: Set[str] = set()
    for node in record.ctx.tree.body:
        name = getattr(node, "name", None)
        if name:
            names.add(name)
    return names


_IDENTIFIER_RE = re.compile(r"\w+")


def _select_changed(records: Sequence[_SourceRecord]
                    ) -> Optional[List[_SourceRecord]]:
    """The records ``--changed`` mode analyses, or None for all.

    A module is selected when git reports its file as touched, or when
    it mentions (by identifier) a top-level name a touched module
    defines — the one-hop signature-table dependents.
    """
    anchor = next((r.abs_path for r in records if r.abs_path is not None),
                  None)
    if anchor is None:
        return None
    changed_files = _git_changed_files(anchor)
    if changed_files is None:
        return None
    touched = [r for r in records if r.abs_path in changed_files]
    if not touched:
        return []
    exported: Set[str] = set()
    for record in touched:
        exported |= _defined_names(record)
    selected: Dict[str, _SourceRecord] = {r.rel: r for r in touched}
    for record in records:
        if record.rel in selected or not exported:
            continue
        identifiers = set(_IDENTIFIER_RE.findall(record.source))
        if identifiers & exported:
            selected[record.rel] = record
    return [r for r in records if r.rel in selected]


# -- pass execution -----------------------------------------------------------

def _run_pass_on_module(pass_name: str, rel: str, source: str
                        ) -> Tuple[List[Finding], float]:
    """Execute one pass over one module; ``(findings, wall_ms)``.

    Module-level so a :class:`ProcessPoolExecutor` can pickle it; the
    worker re-parses from source (ASTs don't travel well) and reuses
    the globally shared project context installed by
    :func:`_pool_init`.
    """
    from repro.staticcheck.registry import get_pass

    module = ModuleContext.from_source(source, rel)
    started = time.perf_counter()
    findings = get_pass(pass_name).run(module, _worker_project())
    wall_ms = (time.perf_counter() - started) * 1e3
    return findings, wall_ms


#: Worker-side project context installed by the pool initialiser.
_WORKER_PROJECT: List[ProjectContext] = []


def _pool_init(project: ProjectContext) -> None:
    """Process-pool initialiser: share one pickled project per worker."""
    _WORKER_PROJECT.clear()
    _WORKER_PROJECT.append(project)


def _worker_project() -> ProjectContext:
    """The project context for this process (worker or parent)."""
    return _WORKER_PROJECT[0]


def _analyze_chunk(chunk: Sequence[Tuple[str, str, Tuple[str, ...]]]
                   ) -> List[Tuple[str, Dict[str, List[Finding]],
                                   Dict[str, float]]]:
    """Worker task: run the named passes over a chunk of modules.

    Each chunk item is ``(rel, source, pass_names)``; the return value
    mirrors it as ``(rel, {pass: findings}, {pass: wall_ms})``.
    """
    results = []
    for rel, source, pass_names in chunk:
        per_pass: Dict[str, List[Finding]] = {}
        times: Dict[str, float] = {}
        for pass_name in pass_names:
            findings, wall_ms = _run_pass_on_module(pass_name, rel, source)
            per_pass[pass_name] = findings
            times[pass_name] = wall_ms
        results.append((rel, per_pass, times))
    return results


def _execute_misses(misses: Dict[str, List[str]],
                    records_by_rel: Dict[str, _SourceRecord],
                    jobs: int,
                    ) -> Tuple[Dict[Tuple[str, str], List[Finding]],
                               Dict[str, float], Dict[str, int]]:
    """Run every cache-missed ``(module, pass)`` pair, pooled or inline.

    Returns findings per pair plus per-pass wall-time and executed
    module counts for the timing report.
    """
    produced: Dict[Tuple[str, str], List[Finding]] = {}
    wall_ms: Dict[str, float] = {}
    executed: Dict[str, int] = {}

    def absorb(rel: str, per_pass: Dict[str, List[Finding]],
               times: Dict[str, float]) -> None:
        for pass_name, findings in per_pass.items():
            produced[(rel, pass_name)] = findings
            wall_ms[pass_name] = wall_ms.get(pass_name, 0.0) \
                + times[pass_name]
            executed[pass_name] = executed.get(pass_name, 0) + 1

    items = [(rel, records_by_rel[rel].source, tuple(pass_names))
             for rel, pass_names in misses.items()]
    if jobs > 1 and len(items) > 1:
        workers = min(jobs, len(items))
        chunks = [items[i::workers] for i in range(workers)]
        project = _worker_project()
        with ProcessPoolExecutor(
                max_workers=workers, initializer=_pool_init,
                initargs=(project,)) as executor:
            for chunk_result in executor.map(_analyze_chunk, chunks):
                for rel, per_pass, times in chunk_result:
                    absorb(rel, per_pass, times)
    else:
        for rel, source, pass_names in items:
            per_pass = {}
            times = {}
            for pass_name in pass_names:
                findings, elapsed_ms = _run_pass_on_module(
                    pass_name, rel, source)
                per_pass[pass_name] = findings
                times[pass_name] = elapsed_ms
            absorb(rel, per_pass, times)
    return produced, wall_ms, executed


def run_passes_incremental(records: Sequence[_SourceRecord],
                           selected: Optional[Tuple[str, ...]],
                           project: ProjectContext,
                           cache: Optional[AnalysisCache],
                           jobs: int,
                           report: Report) -> List[Finding]:
    """Cache-aware pass execution over collected modules.

    Fills ``report.timings`` (and ``report.cache`` when caching is on)
    as a side effect; returns the sorted, rule-filtered findings.
    """
    active = passes_for(selected)
    records_by_rel = {r.rel: r for r in records}
    digest = project.digest()
    _pool_init(project)  # install for inline execution and pool workers

    cached: Dict[Tuple[str, str], List[Finding]] = {}
    keys: Dict[Tuple[str, str], str] = {}
    misses: Dict[str, List[str]] = {}
    for record in records:
        for pass_obj in active:
            pair = (record.rel, pass_obj.name)
            if cache is not None:
                key = cache.findings_key(
                    record.rel, record.src_hash, pass_obj.name,
                    pass_version(pass_obj), digest)
                keys[pair] = key
                hit = cache.get_findings(key)
                if hit is not None:
                    cached[pair] = hit
                    continue
            misses.setdefault(record.rel, []).append(pass_obj.name)

    produced, wall_ms, executed = _execute_misses(
        misses, records_by_rel, jobs)
    if cache is not None:
        for pair, findings in produced.items():
            cache.put_findings(keys[pair], findings)
        report.cache = cache.stats

    findings: List[Finding] = []
    per_pass_total: Dict[str, int] = {}
    for pair, pair_findings in list(cached.items()) + list(produced.items()):
        findings.extend(pair_findings)
        pass_name = pair[1]
        per_pass_total[pass_name] = per_pass_total.get(pass_name, 0) \
            + len(pair_findings)
    report.timings = [
        PassTiming(pass_name=pass_obj.name,
                   wall_ms=round(wall_ms.get(pass_obj.name, 0.0), 3),
                   modules=executed.get(pass_obj.name, 0),
                   findings=per_pass_total.get(pass_obj.name, 0))
        for pass_obj in active
    ]

    if selected is not None:
        wanted = set(expand_selection(selected))
        findings = [f for f in findings if f.rule in wanted]
    return sorted(findings, key=_sort_key)


def analyze_paths(paths: Optional[Sequence[Path]] = None,
                  rules: Optional[Iterable[str]] = None,
                  waivers: Optional[Iterable[Waiver]] = None,
                  waivers_path: Optional[Path] = None,
                  baseline_path: Optional[Path] = None,
                  cache_dir: Optional[Path] = None,
                  jobs: int = 1,
                  changed_only: bool = False) -> Report:
    """Full analysis of source trees with waivers and baseline applied.

    ``paths`` defaults to the installed ``repro`` package sources.
    ``waivers`` wins over ``waivers_path``; with neither given the repo
    waiver file (``tests/lint_waivers.txt``) is used when present.
    ``rules`` may mix rule ids and pass names.

    ``cache_dir`` enables the incremental findings cache rooted there;
    ``jobs > 1`` fans cache-missed modules out over a process pool;
    ``changed_only`` narrows analysis to git-touched modules plus their
    name-level dependents (project tables still cover the whole tree,
    and stale-baseline / unused-waiver detection is restricted to the
    analysed subset, since unanalysed modules can't prove staleness).
    """
    roots = [Path(p) for p in paths] if paths else [default_root()]
    records = _collect_sources(roots)
    cache = AnalysisCache(cache_dir) if cache_dir is not None else None
    selected = tuple(rules) if rules is not None else None
    if selected is not None:
        selected = expand_selection(selected)

    project = _project_for(records, cache)
    analyzed = records
    if changed_only:
        subset = _select_changed(records)
        if subset is not None:
            analyzed = subset

    report = Report(files_analyzed=len(analyzed),
                    baseline_path=(str(baseline_path)
                                   if baseline_path is not None else None),
                    roots=tuple(str(p) for p in roots),
                    changed_only=changed_only)
    findings = run_passes_incremental(
        analyzed, selected, project, cache, jobs, report)

    if waivers is not None:
        waiver_list = list(waivers)
    else:
        waiver_list = load_waivers(waivers_path)
    if selected is not None:
        wanted = set(selected)
        waiver_list = [w for w in waiver_list if w.rule in wanted]

    used: Dict[int, bool] = {}
    unwaived: List[Finding] = []
    for finding in findings:
        matched = False
        for index, waiver in enumerate(waiver_list):
            if waiver.matches(finding):
                used[index] = True
                matched = True
                break
        (report.waived if matched else unwaived).append(finding)
    report.unused_waivers = [
        waiver for index, waiver in enumerate(waiver_list)
        if index not in used
    ]

    entries = load_baseline(baseline_path)
    new, covered, unused = apply_baseline(unwaived, entries)
    if changed_only:
        # A module outside the analysed subset produced no findings this
        # run, so its baseline entries and waivers can't be proven stale.
        analyzed_paths = {record.rel for record in analyzed}
        unused = [e for e in unused if e["path"] in analyzed_paths]
        report.unused_waivers = []
    report.findings = new
    report.baselined = covered
    report.unused_baseline = unused
    return report
