"""Every paper claim, checked on one full-scale run of the experiments."""

import re
from pathlib import Path

import pytest

from repro.analysis.claims import CLAIMS, Claim

REPORT = (Path(__file__).resolve().parents[1] / "REPORT.md").read_text(
    encoding="utf-8")


@pytest.mark.parametrize("claim", CLAIMS, ids=[c.key for c in CLAIMS])
def test_claim_holds(claim, paper_results):
    problem = claim.violation(getattr(paper_results, claim.experiment))
    assert problem is None, problem


def test_claims_cover_report_with_unique_keys_and_its_paper_text():
    sections = re.findall(r"^## ((?:Figure|Table) \d+)", REPORT, re.M)
    assert len(sections) == 11
    assert set(sections) <= {c.source for c in CLAIMS}, "unclaimed section"
    assert len({c.key for c in CLAIMS}) == len(CLAIMS), "duplicate key"
    stale = [c.key for c in CLAIMS if c.paper not in REPORT]
    assert not stale, f"paper text not in REPORT.md: {stale}"


@pytest.mark.parametrize("kind, bound, value, holds", [
    ("range", "(5, 12)", 5.0, False), ("range", "[5, 12)", 5.0, True),
    ("range", "[5, 12)", 12.0, False), ("ratio", "(1, 2.5]", 2.5, True),
    ("range", "(2000, inf)", 2000.5, True),
    ("ordering", "<", (1.0, 2.0, 2.0), False),
    ("ordering", "<=", (1.0, 2.0, 2.0), True),
    ("ordering", "<= 0.05", (1.0, 0.96), True),
    ("ordering", "<= 0.05", (1.0, 0.9), False),
    ("ordering", ">= 0.05", (1.0, 1.04), True),
    ("ordering", ">", (3.0, 2.0, 2.5), False),
    ("equals", ("OPEN", "MITIGATED"), ("OPEN", "MITIGATED"), True),
    ("equals", 0.0, 0.01, False),
])
def test_bound_semantics(kind, bound, value, holds):
    claim = Claim("fig9.wake_ns", "Figure 9", "", kind, bound, lambda r: r)
    assert claim.holds(value) is holds
    message = claim.violation(value)
    assert (message is None) is holds
    if not holds:  # names the key, the source, the value and the bound
        for part in ("fig9.wake_ns", "Figure 9", repr(value), kind, bound):
            assert str(part) in message


@pytest.mark.parametrize("kind, bound", [
    ("range", "5, 12"), ("range", "(12, 5)"), ("ratio", "[1; 2]"),
    ("ordering", "=="), ("point", 3.0),
])
def test_malformed_claims_are_rejected(kind, bound):
    with pytest.raises(ValueError):
        Claim("x.y", "Figure 0", "", kind, bound, lambda r: r)
