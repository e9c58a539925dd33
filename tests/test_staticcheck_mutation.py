"""Seeded-mutation checks: the dimensional pass catches real unit bugs.

No genuine unit bugs survive in ``repro.pdn``/``repro.pmu`` (the
committed tree analyses clean), so these tests prove the pass has
teeth the other way around: take the *real* module sources, reintroduce
the exact dropped-conversion bug the conventions guard against (strip a
``us_to_ns``/``ns_to_s`` call), and assert the pass flags the mutant —
while the unmutated original stays clean.
"""

from pathlib import Path

import pytest

from repro.staticcheck import analyze_source
from repro.staticcheck.runner import default_root


def real_source(rel):
    """The committed source text of one repro module."""
    return (default_root() / rel).read_text(encoding="utf-8")


def mutate(source, before, after):
    """Apply one seeded mutation; the original text must be present."""
    assert before in source, f"mutation anchor not found: {before!r}"
    return source.replace(before, after)


def unit_findings(source, path):
    """Dimensional-pass findings for one source text."""
    return analyze_source(source, path,
                          rules=["unit-mix", "unit-compare", "unit-arg",
                                 "unit-return", "unit-freq-div"])


CASES = [
    pytest.param(
        "pdn/powergate.py",
        "now_ns - self._last_use_ns > us_to_ns(self.spec.idle_close_us)",
        "now_ns - self._last_use_ns > self.spec.idle_close_us",
        "unit-compare",
        id="powergate-idle-close-us-vs-ns",
    ),
    pytest.param(
        "pmu/thermal.py",
        "dt_s = ns_to_s(now_ns - self._last_update_ns)",
        "dt_s = now_ns - self._last_update_ns",
        "unit-mix",
        id="thermal-dt-s-from-ns",
    ),
]


class TestSeededMutations:
    @pytest.mark.parametrize("rel, before, after, expected_rule", CASES)
    def test_original_is_clean(self, rel, before, after, expected_rule):
        findings = unit_findings(real_source(rel), f"repro/{rel}")
        assert findings == [], [f.render() for f in findings]

    @pytest.mark.parametrize("rel, before, after, expected_rule", CASES)
    def test_mutant_is_caught(self, rel, before, after, expected_rule):
        mutant = mutate(real_source(rel), before, after)
        findings = unit_findings(mutant, f"repro/{rel}")
        assert expected_rule in {f.rule for f in findings}, \
            [f.render() for f in findings]

    def test_whole_pdn_and_pmu_trees_are_unit_clean(self):
        """Every committed pdn/pmu module passes the dimensional rules."""
        for package in ("pdn", "pmu"):
            for path in sorted((default_root() / package).rglob("*.py")):
                rel = path.relative_to(default_root().parent).as_posix()
                findings = unit_findings(
                    path.read_text(encoding="utf-8"), rel)
                assert findings == [], [f.render() for f in findings]

