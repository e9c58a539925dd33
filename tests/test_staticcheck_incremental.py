"""The incremental parallel engine: cache, invalidation, --changed, CLI.

The cache-correctness property under test everywhere: a cached run must
produce byte-identical reports to a cold run, under every invalidation
trigger (source edit, pass-version bump, cross-module project change).
"""

import json
import subprocess
import textwrap

import pytest

from repro.staticcheck import (
    AnalysisCache,
    analyze_paths,
    module_facts,
    pass_version,
    source_hash,
)
from repro.staticcheck.__main__ import main
from repro.staticcheck.context import ModuleContext, ProjectContext
from repro.staticcheck.model import Finding
from repro.staticcheck.registry import all_passes, expand_selection

BAD_MODULE = textwrap.dedent("""
    \"\"\"Fixture with dimensional and determinism findings.\"\"\"
    import heapq


    def schedule(heap, time_ns: float, handle: object, idle_us: float) -> float:
        \"\"\"Mixes units and pushes an untiebroken heap entry.\"\"\"
        heapq.heappush(heap, (time_ns, handle))
        return time_ns + idle_us
""")

CLEAN_MODULE = '"""Clean module."""\n\n\nVALUE = 3\n'


def make_tree(tmp_path, n_clean=3):
    """A small analysable tree with one bad module."""
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "bad_mod.py").write_text(BAD_MODULE, encoding="utf-8")
    for index in range(n_clean):
        (root / f"clean_{index}.py").write_text(CLEAN_MODULE,
                                                encoding="utf-8")
    return root


def run(root, cache_dir, **kwargs):
    """One cached analysis run over ``root``."""
    return analyze_paths(paths=[root], waivers=[], cache_dir=cache_dir,
                         **kwargs)


class TestFindingsCache:
    def test_warm_run_is_all_hits_and_identical(self, tmp_path):
        root = make_tree(tmp_path)
        cache = tmp_path / "cache"
        cold = run(root, cache)
        assert cold.cache is not None
        assert cold.cache.hits == 0 and cold.cache.misses > 0
        assert cold.cache.stored == cold.cache.misses
        warm = run(root, cache)
        assert warm.cache.misses == 0 and warm.cache.stored == 0
        assert warm.cache.hits == cold.cache.misses
        assert warm.findings == cold.findings

    def test_body_edit_invalidates_only_the_touched_module(self, tmp_path):
        root = make_tree(tmp_path, n_clean=3)
        cache = tmp_path / "cache"
        run(root, cache)
        # A body-only edit: same signatures, so the project digest is
        # unchanged and other modules stay cached.
        (root / "clean_0.py").write_text(
            '"""Clean module."""\n\n\nVALUE = 4\n', encoding="utf-8")
        second = run(root, cache)
        n_passes = len(all_passes())
        assert second.cache.misses == n_passes
        assert second.cache.hits == 3 * n_passes

    def test_signature_change_invalidates_every_module(self, tmp_path):
        root = make_tree(tmp_path, n_clean=2)
        cache = tmp_path / "cache"
        run(root, cache)
        # A new top-level def changes the cross-module signature table,
        # so every module's cached findings become unsound.
        (root / "clean_0.py").write_text(
            CLEAN_MODULE + '\n\ndef fresh_helper(x: int) -> int:\n'
                           '    """New signature."""\n    return x\n',
            encoding="utf-8")
        second = run(root, cache)
        assert second.cache.hits == 0
        assert second.cache.misses == 3 * len(all_passes())

    def test_pass_version_invalidates_that_pass_only(self, tmp_path,
                                                     monkeypatch):
        root = make_tree(tmp_path, n_clean=1)
        cache = tmp_path / "cache"
        run(root, cache)
        target = next(p for p in all_passes() if p.name == "determinism")
        assert pass_version(target) == 1
        monkeypatch.setattr(type(target), "version", 99, raising=False)
        second = run(root, cache)
        assert second.cache.misses == 2  # two modules, one bumped pass
        assert second.cache.hits == 2 * (len(all_passes()) - 1)

    def test_findings_survive_the_round_trip_exactly(self, tmp_path):
        root = make_tree(tmp_path)
        cold = run(root, tmp_path / "cache")
        warm = run(root, tmp_path / "cache")
        for before, after in zip(cold.findings, warm.findings):
            assert isinstance(after, Finding)
            assert before == after


class TestCacheStore:
    def test_corrupt_entry_is_unlinked_and_misses(self, tmp_path):
        cache = AnalysisCache(tmp_path / "cache")
        key = cache.findings_key("m.py", "hash", "determinism", 1, "digest")
        cache.put_findings(key, [])
        entry = cache._entry_path(key)
        entry.write_text("{not json", encoding="utf-8")
        assert cache.get_findings(key) is None
        assert not entry.exists()

    def test_facts_round_trip(self, tmp_path):
        cache = AnalysisCache(tmp_path / "cache")
        module = ModuleContext.from_source(BAD_MODULE, "pkg/bad_mod.py")
        facts = module_facts(module)
        key = cache.facts_key("pkg/bad_mod.py", source_hash(BAD_MODULE), 1)
        assert cache.get_facts(key) is None
        cache.put_facts(key, facts)
        assert cache.get_facts(key) == facts

    def test_project_digest_is_deterministic(self):
        modules = [ModuleContext.from_source(BAD_MODULE, "pkg/bad_mod.py"),
                   ModuleContext.from_source(CLEAN_MODULE, "pkg/clean.py")]
        first = ProjectContext.build(modules).digest()
        second = ProjectContext.build(modules).digest()
        assert first == second
        shifted = [ModuleContext.from_source(
            BAD_MODULE.replace("idle_us", "idle_ms"), "pkg/bad_mod.py")]
        assert ProjectContext.build(shifted).digest() != first


class TestParallelExecution:
    def test_pooled_run_matches_inline_run(self, tmp_path):
        root = make_tree(tmp_path, n_clean=4)
        inline = analyze_paths(paths=[root], waivers=[], jobs=1)
        pooled = analyze_paths(paths=[root], waivers=[], jobs=3)
        assert pooled.findings == inline.findings
        assert pooled.files_analyzed == inline.files_analyzed

    def test_pooled_run_with_cache(self, tmp_path):
        root = make_tree(tmp_path, n_clean=4)
        cache = tmp_path / "cache"
        cold = run(root, cache, jobs=3)
        warm = run(root, cache, jobs=3)
        assert warm.cache.misses == 0
        assert warm.findings == cold.findings


class TestChangedMode:
    def _git(self, cwd, *args):
        subprocess.run(["git", *args], cwd=cwd, check=True,
                       capture_output=True)

    @pytest.fixture
    def git_tree(self, tmp_path):
        root = make_tree(tmp_path, n_clean=2)
        (root / "dependent.py").write_text(
            '"""Uses the bad module."""\n\nfrom pkg.bad_mod import '
            'schedule\n\n\nHOOK = schedule\n', encoding="utf-8")
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "-c", "user.email=t@t", "-c", "user.name=t",
                  "add", ".")
        self._git(tmp_path, "-c", "user.email=t@t", "-c", "user.name=t",
                  "commit", "-qm", "seed")
        return root

    def test_clean_checkout_analyses_nothing(self, git_tree):
        report = analyze_paths(paths=[git_tree], waivers=[],
                               changed_only=True)
        assert report.changed_only
        assert report.files_analyzed == 0
        assert report.findings == []

    def test_touched_module_and_dependents_selected(self, git_tree):
        (git_tree / "bad_mod.py").write_text(
            BAD_MODULE + "\n\nEXTRA = 1\n", encoding="utf-8")
        report = analyze_paths(paths=[git_tree], waivers=[],
                               changed_only=True)
        # bad_mod itself plus dependent.py (mentions `schedule`); the
        # clean_* modules share no identifiers with it.
        assert report.files_analyzed == 2
        assert {f.path for f in report.findings} == {"pkg/bad_mod.py"}

    def test_outside_git_falls_back_to_everything(self, tmp_path):
        root = make_tree(tmp_path)
        probe = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                               cwd=root, capture_output=True, text=True)
        if probe.returncode == 0:
            pytest.skip("tmp_path is inside a git work tree")
        report = analyze_paths(paths=[root], waivers=[], changed_only=True)
        assert report.files_analyzed == 4


class TestSelectionExpansion:
    def test_pass_name_expands_to_its_rules(self):
        rules = expand_selection(["goldenflow"])
        assert "golden-roundtrip" in rules
        assert "golden-emit" in rules

    def test_mixed_selection_dedupes(self):
        rules = expand_selection(["goldenflow", "golden-emit"])
        assert rules.count("golden-emit") == 1

    def test_unknown_name_lists_both_namespaces(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="valid passes"):
            expand_selection(["no-such-thing"])


class TestCliIncrementalFlags:
    def test_cache_dir_and_stats_json(self, tmp_path, capsys):
        root = make_tree(tmp_path)
        stats_file = tmp_path / "stats.json"
        argv = [str(root), "--no-waivers", "--cache-dir",
                str(tmp_path / "cache"), "--stats-json", str(stats_file)]
        assert main(argv) == 1  # bad_mod findings
        capsys.readouterr()
        cold = json.loads(stats_file.read_text(encoding="utf-8"))
        assert cold["cache"]["hits"] == 0 and cold["cache"]["misses"] > 0
        assert main(argv) == 1
        capsys.readouterr()
        warm = json.loads(stats_file.read_text(encoding="utf-8"))
        assert warm["cache"]["misses"] == 0
        assert warm["cache"]["hits"] == cold["cache"]["misses"]
        assert {t["pass"] for t in warm["timings"]} \
            == {p.name for p in all_passes()}

    def test_jobs_flag(self, tmp_path, capsys):
        root = make_tree(tmp_path)
        assert main([str(root), "--no-waivers", "--jobs", "2"]) == 1
        assert "[unit-mix]" in capsys.readouterr().out

    def test_stale_baseline_message_names_rule_path_and_command(
            self, tmp_path, capsys):
        src = tmp_path / "bad_mod.py"
        src.write_text(BAD_MODULE, encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        assert main([str(src), "--no-waivers",
                     "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        src.write_text(CLEAN_MODULE, encoding="utf-8")
        assert main([str(src), "--no-waivers",
                     "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "stale baseline entry" in out
        assert "unit-mix" in out and "bad_mod.py" in out
        assert f"--write-baseline {baseline}" in out

    def test_json_report_carries_timings_and_cache(self, tmp_path, capsys):
        root = make_tree(tmp_path)
        assert main([str(root), "--no-waivers", "--format", "json",
                     "--cache-dir", str(tmp_path / "cache")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"]["misses"] > 0
        assert {t["pass"] for t in payload["timings"]} \
            == {p.name for p in all_passes()}
        assert payload["changed_only"] is False
