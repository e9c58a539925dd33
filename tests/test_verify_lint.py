"""The ``repro.verify`` lint stage: rule fixtures, seeded mutations of
real modules, waivers, and the clean repo."""

import textwrap

import pytest

from repro.errors import ConfigError
from repro.verify.__main__ import main
from repro.verify.lint import (
    RULES,
    Waiver,
    default_root,
    default_waivers_path,
    lint_source,
    lint_tree,
    parse_waivers,
)

#: The determinism rules.  Their fixtures leave hints out for brevity,
#: so ``missing-hints`` and ``unused-import`` have fixtures of their own.
DETERMINISM_RULES = set(RULES) - {"missing-hints", "unused-import"}


def lint(source, path="repro/core/example.py"):
    """Determinism findings of a dedented snippet under a virtual path."""
    return [f for f in lint_source(textwrap.dedent(source), path)
            if f.rule in DETERMINISM_RULES]


def hints(source):
    """``missing-hints`` findings of a dedented snippet."""
    return [f for f in lint_source(textwrap.dedent(source),
                                   "repro/core/example.py")
            if f.rule == "missing-hints"]


def unused(source):
    """``unused-import`` findings of a dedented snippet."""
    return [f for f in lint_source(textwrap.dedent(source),
                                   "repro/core/example.py")
            if f.rule == "unused-import"]


def real_source(rel):
    """The committed source text of one repro module."""
    return (default_root() / rel).read_text(encoding="utf-8")


def mutate(source, before, after):
    """Apply one seeded mutation; the original text must be present once."""
    assert source.count(before) == 1, f"mutation anchor not unique: {before!r}"
    return source.replace(before, after)


def rules_of(findings):
    """The set of rule names among findings."""
    return {f.rule for f in findings}


class TestUnseededRng:
    def test_flags_unseeded_default_rng(self):
        findings = lint("""
            import numpy as np
            rng = np.random.default_rng()
        """)
        assert rules_of(findings) == {"unseeded-rng"}

    def test_accepts_seeded_default_rng(self):
        findings = lint("""
            import numpy as np
            rng = np.random.default_rng(1234)
            rng2 = np.random.default_rng(seed=(1, 2, 3))
        """)
        assert findings == []

    def test_flags_unseeded_random_random(self):
        findings = lint("""
            import random
            r = random.Random()
        """)
        assert rules_of(findings) == {"unseeded-rng"}


class TestGlobalRng:
    def test_flags_legacy_global_calls(self):
        findings = lint("""
            import numpy as np
            x = np.random.uniform(0, 1)
            np.random.seed(3)
        """)
        assert [f.rule for f in findings] == ["global-rng", "global-rng"]

    def test_accepts_generator_constructors(self):
        findings = lint("""
            import numpy as np
            rng = np.random.default_rng(7)
            ss = np.random.SeedSequence(9)
        """)
        assert findings == []


class TestWallClock:
    def test_flags_time_calls_in_core(self):
        source = """
            import time
            def now():
                return time.time()
        """
        findings = lint(source, path="repro/pdn/example.py")
        assert rules_of(findings) == {"wall-clock"}

    def test_flags_from_import_usage(self):
        source = """
            from time import perf_counter
            def now():
                return perf_counter()
        """
        findings = lint(source, path="repro/soc/example.py")
        assert rules_of(findings) == {"wall-clock"}

    def test_flags_datetime_now(self):
        source = """
            import datetime
            stamp = datetime.datetime.now()
        """
        findings = lint(source, path="repro/pmu/example.py")
        assert rules_of(findings) == {"wall-clock"}

    def test_allowed_outside_core(self):
        source = """
            import time
            def now():
                return time.time()
        """
        assert lint(source, path="repro/runner/example.py") == []
        assert lint(source, path="repro/obs/example.py") == []


class TestFloatEq:
    def test_flags_physical_vs_float_literal(self):
        findings = lint("""
            def check(vcc_mv):
                return vcc_mv == 0.0
        """)
        assert rules_of(findings) == {"float-eq"}

    def test_flags_two_physical_sides(self):
        findings = lint("""
            def check(t_start_ns, t_end_ns):
                return t_start_ns != t_end_ns
        """)
        assert rules_of(findings) == {"float-eq"}

    def test_accepts_epsilon_comparison(self):
        findings = lint("""
            def check(vcc_mv):
                return abs(vcc_mv) < 1e-12
        """)
        assert findings == []

    def test_accepts_non_physical_equality(self):
        findings = lint("""
            def check(p, count):
                return p == 0.0 or count == 3
        """)
        assert findings == []

    def test_accepts_integer_literal_on_counter(self):
        findings = lint("""
            def check(retries):
                return retries == 0
        """)
        assert findings == []


class TestMutableDefault:
    def test_flags_list_and_dict_defaults(self):
        findings = lint("""
            def f(items=[], table={}):
                return items, table
        """)
        assert [f.rule for f in findings] == ["mutable-default"] * 2

    def test_flags_constructor_defaults(self):
        findings = lint("""
            def f(items=list()):
                return items
        """)
        assert rules_of(findings) == {"mutable-default"}

    def test_accepts_none_and_tuples(self):
        findings = lint("""
            def f(items=None, pair=(1, 2), name="x"):
                return items, pair, name
        """)
        assert findings == []


class TestWaivers:
    def test_parse_and_match(self):
        waivers = parse_waivers(
            "# comment\n"
            "float-eq repro/measure/sampler.py t == times[-1]\n"
            "wall-clock repro/pdn/*.py\n")
        assert len(waivers) == 2
        assert waivers[0].substring == "t == times[-1]"
        assert waivers[1].substring is None

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigError, match="unknown rule"):
            parse_waivers("not-a-rule repro/x.py\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_waivers("float-eq\n")

    def test_waiver_requires_matching_substring(self):
        findings = lint("""
            def check(vcc_mv):
                return vcc_mv == 0.0
        """)
        hit = Waiver("float-eq", "repro/core/example.py", "vcc_mv == 0.0")
        miss = Waiver("float-eq", "repro/core/example.py", "unrelated text")
        assert hit.matches(findings[0])
        assert not miss.matches(findings[0])

    def test_waiver_requires_matching_rule_and_path(self):
        findings = lint("""
            def check(vcc_mv):
                return vcc_mv == 0.0
        """)
        assert not Waiver("wall-clock", "repro/core/example.py").matches(
            findings[0])
        assert not Waiver("float-eq", "repro/pdn/other.py").matches(
            findings[0])

    def test_second_rule_id_on_a_line_becomes_the_path_glob(self):
        """One line waives ONE rule; a second id is read as the glob."""
        waivers = parse_waivers("float-eq mutable-default\n")
        assert waivers == [Waiver("float-eq", "mutable-default")]
        assert not waivers[0].matches_path("repro/core/mod.py")

    def test_substring_keeps_internal_whitespace(self):
        waivers = parse_waivers(
            "float-eq repro/x.py if times and t == times[-1]\n")
        assert waivers[0].substring == "if times and t == times[-1]"

    def test_waiver_suppresses_finding(self, tmp_path):
        module = tmp_path / "example_mod.py"
        module.write_text("def check(vcc_v: float) -> bool:\n"
                          "    return vcc_v == 0.0\n", encoding="utf-8")
        waivers = tmp_path / "waivers.txt"
        waivers.write_text("float-eq example_mod.py\n", encoding="utf-8")
        report = lint_tree(module, waivers_path=waivers)
        assert report.ok
        assert [f.rule for f in report.waived] == ["float-eq"]

    def test_waiver_on_a_multi_finding_line_is_rule_scoped(self, tmp_path):
        """Two rules fire on one line; waiving one leaves the other."""
        module = tmp_path / "example_mod.py"
        module.write_text("def check(vcc_v: float, seen: list = []) -> bool:"
                          " return vcc_v == 0.0\n", encoding="utf-8")
        waivers = tmp_path / "waivers.txt"
        waivers.write_text("float-eq example_mod.py\n", encoding="utf-8")
        report = lint_tree(module, waivers_path=waivers)
        assert [f.rule for f in report.findings] == ["mutable-default"]
        assert [f.rule for f in report.waived] == ["float-eq"]
        assert report.findings[0].line == report.waived[0].line
        assert report.unused_waivers == []

    def test_never_matching_waiver_is_reported_unused(self, tmp_path):
        """Right rule, right file, but a substring that appears nowhere."""
        module = tmp_path / "example_mod.py"
        module.write_text("def check(vcc_v: float) -> bool:\n"
                          "    return vcc_v == 0.0\n", encoding="utf-8")
        waivers = tmp_path / "waivers.txt"
        waivers.write_text("float-eq example_mod.py no_such_fragment\n",
                           encoding="utf-8")
        report = lint_tree(module, waivers_path=waivers)
        assert [f.rule for f in report.findings] == ["float-eq"]
        assert report.waived == []
        assert len(report.unused_waivers) == 1

    def test_waiver_for_a_module_not_analysed_is_not_stale(self, tmp_path):
        module = tmp_path / "clean_mod.py"
        module.write_text('"""Clean."""\n', encoding="utf-8")
        waivers = tmp_path / "waivers.txt"
        waivers.write_text("float-eq other_mod.py\n", encoding="utf-8")
        report = lint_tree(module, waivers_path=waivers)
        assert report.ok and report.unused_waivers == []


class TestMissingHints:
    def test_flags_unannotated_public_function(self):
        findings = hints("""
            def compute(x, y):
                \"\"\"Docstring present; hints absent.\"\"\"
                return x + y
        """)
        assert [f.message for f in findings] == [
            "compute() is missing annotations for: x, y, return"]

    def test_accepts_fully_annotated_function(self):
        findings = hints("""
            class Widget:
                def spin(self, turns: int, *, fast: bool = False) -> None:
                    \"\"\"Fully annotated; self needs no hint.\"\"\"

            def compute(x: float, y: float) -> float:
                \"\"\"Fully annotated.\"\"\"
                return x + y
        """)
        assert findings == []

    def test_ignores_private_and_nested_functions(self):
        findings = hints("""
            def _helper(x, y):
                return x + y

            def outer() -> int:
                \"\"\"Nested defs are not public API.\"\"\"
                def inner(a, b):
                    return a + b
                return inner(1, 2)
        """)
        assert findings == []


class TestUnusedImport:
    def test_flags_unread_names(self):
        findings = unused("""
            import os.path
            import numpy as np
            from typing import Dict, List

            def size(xs: List[int]) -> int:
                \"\"\"Reads List only.\"\"\"
                return len(xs)
        """)
        assert [f.message for f in findings] == [
            "'os' is imported but never used",
            "'np' is imported but never used",
            "'Dict' is imported but never used"]

    def test_accepts_reads_annotations_and_reexports(self):
        findings = unused("""
            from __future__ import annotations

            import math
            from typing import TYPE_CHECKING, Optional
            from repro.units import us_to_ns

            if TYPE_CHECKING:
                from repro.soc.system import System

            __all__ = ["us_to_ns"]

            def tick(system: "System", t: Optional[float]) -> float:
                \"\"\"Names read only in annotations count as used.\"\"\"
                return math.floor(t)
        """)
        assert findings == []


#: (module, before, after, rule): one seeded defect per rule in real code;
#: ``rule`` is a tuple, in line order, when the defect trips two rules.
MUTATIONS = [
    pytest.param(
        "faults/base.py",
        "np.random.default_rng(self.seed_parts(*salt))",
        "np.random.default_rng()",
        "unseeded-rng", id="fault-rng-seed-dropped"),
    pytest.param(
        "faults/models.py",
        "return values + rng.normal(0.0, sigma, len(values))",
        "return values + np.random.normal(0.0, sigma, len(values))",
        "global-rng", id="measurement-noise-from-global-rng"),
    pytest.param(
        "pmu/thermal.py",
        "dt_s = ns_to_s(now_ns - self._last_update_ns)",
        "dt_s = ns_to_s(time.monotonic_ns() - self._last_update_ns)",
        "wall-clock", id="thermal-step-on-host-time"),
    pytest.param(
        "pmu/thermal.py",
        "if abs(self.temperature_c) < 1e-12:",
        "if self.temperature_c == 0.0:",
        "float-eq", id="thermal-start-sentinel-exact"),
    pytest.param(
        "mitigations/matrix/sweep.py",
        "def run_matrix(attackers: Optional[Sequence[str]] = None,",
        "def run_matrix(attackers: Optional[Sequence[str]] = [],",
        "mutable-default", id="matrix-attackers-list-default"),
    pytest.param(
        "soc/engine.py",
        "def peek_time(self) -> Optional[float]:",
        "def peek_time(self):",
        # The hint was the module's one read of Optional.
        ("unused-import", "missing-hints"),
        id="engine-peek-time-return-hint"),
    pytest.param(
        "runner/cache.py",
        "from typing import Any, Callable, Mapping, Optional, Tuple",
        "from typing import Any, Callable, Dict, Mapping, Optional, Tuple",
        "unused-import", id="cache-unread-typing-dict"),
]


class TestSeededMutations:
    """Each rule passes its real module and flags a one-line defect in it."""

    @pytest.mark.parametrize("rel, before, after, rule", MUTATIONS)
    def test_original_is_clean(self, rel, before, after, rule):
        findings = lint_source(real_source(rel), f"repro/{rel}")
        assert findings == [], [f.render() for f in findings]

    @pytest.mark.parametrize("rel, before, after, rule", MUTATIONS)
    def test_mutant_is_caught(self, rel, before, after, rule):
        mutant = mutate(real_source(rel), before, after)
        findings = lint_source(mutant, f"repro/{rel}")
        expected = [rule] if isinstance(rule, str) else list(rule)
        assert [f.rule for f in findings] == expected, \
            [f.render() for f in findings]


class TestRepoLint:
    def test_repo_is_clean_under_committed_waivers(self):
        """src/repro has no unwaived violations and no stale waivers."""
        report = lint_tree()
        assert report.ok, [f.render() for f in report.findings]
        assert report.unused_waivers == [], report.unused_waivers

    def test_repo_waivers_are_exercised(self):
        """Every committed waiver still covers a real finding."""
        report = lint_tree()
        assert len(report.waived) == 3

    @pytest.mark.parametrize("part, waived", [
        ("measure", 0),
        ("soc/system.py", 1),
        ("pdn", 2),
    ], ids=["package", "module", "two-findings-one-waiver"])
    def test_partial_tree_reports_repro_paths(self, part, waived):
        """Any part of the tree reports ``repro/...`` paths, as waived."""
        report = lint_tree(default_root() / part)
        assert report.ok, [f.render() for f in report.findings]
        assert len(report.waived) == waived
        assert all(f.path.startswith(f"repro/{part.split('/')[0]}/")
                   for f in report.waived)

    def test_unused_waiver_fails_the_run(self, tmp_path):
        """A waiver that covers an analysed module but matches nothing."""
        module = tmp_path / "clean_mod.py"
        module.write_text('"""Clean."""\n', encoding="utf-8")
        waivers = tmp_path / "waivers.txt"
        waivers.write_text("float-eq clean_mod.py\n", encoding="utf-8")
        report = lint_tree(module, waivers_path=waivers)
        assert not report.ok
        assert report.unused_waivers == [Waiver("float-eq", "clean_mod.py")]

    def test_unused_waiver_fails_the_verify_gate(self, tmp_path, capsys):
        """The verify lint stage reads --waivers and fails on a stale one."""
        text = default_waivers_path().read_text(encoding="utf-8")
        waivers = tmp_path / "waivers.txt"
        waivers.write_text(text + "mutable-default repro/soc/engine.py\n",
                           encoding="utf-8")
        code = main(["--waivers", str(waivers), "--skip-differential",
                     "--skip-goldens", "--skip-audit"])
        captured = capsys.readouterr()
        assert code == 1
        assert ("error: unused waiver 'mutable-default repro/soc/engine.py'"
                in captured.out)
        assert "(3 waived)" in captured.out
        assert "lint: 0 violation(s), 1 unused waiver(s)" in captured.err

    def test_committed_waiver_file_round_trips(self):
        """parse -> render -> reparse of tests/lint_waivers.txt is stable."""
        first = parse_waivers(
            default_waivers_path().read_text(encoding="utf-8"))
        assert first, "committed waiver file should not be empty"
        rendered = "\n".join(w.render() for w in first) + "\n"
        assert parse_waivers(rendered) == first

    def test_syntax_error_raises_config_error(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            lint("def broken(:\n", "repro/x.py")
