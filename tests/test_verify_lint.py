"""The ``repro.verify`` lint stage: rule fixtures, waivers, clean repo."""

import textwrap

import pytest

from repro.errors import ConfigError
from repro.staticcheck import Waiver, analyze_paths, analyze_source, parse_waivers
from repro.verify.__main__ import LINT_RULES


def lint(source, path="repro/core/example.py"):
    """Check a dedented snippet under a virtual path with the lint rules."""
    return analyze_source(textwrap.dedent(source), path, rules=LINT_RULES)


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


class TestRepoLint:
    def test_repo_is_clean_under_committed_waivers(self):
        """src/repro has no unwaived violations and no stale waivers."""
        report = analyze_paths(rules=LINT_RULES)
        assert report.ok, [f.render() for f in report.findings]
        assert report.unused_waivers == [], report.unused_waivers

    def test_repo_waivers_are_exercised(self):
        """Every committed waiver still covers a real finding."""
        report = analyze_paths(rules=LINT_RULES)
        assert len(report.waived) >= 3

    def test_syntax_error_raises_config_error(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            lint("def broken(:\n", "repro/x.py")
