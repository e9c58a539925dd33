"""Determinism auditor: variation checks and report semantics."""

from repro.verify.audit import AuditCheck, AuditReport, audit_scenario
from repro.verify.scenarios import compute_digest


class TestAuditChecks:
    def test_runner_variations_reproduce_baseline(self):
        """jobs=2 and cache cold/warm must all match the serial digest."""
        checks = audit_scenario("matrix_2x2", subprocess_checks=False)
        variations = {check.variation for check in checks}
        assert variations == {"jobs=2", "cache=cold", "cache=warm"}
        for check in checks:
            assert check.ok, check.render()

    def test_serial_scenario_has_no_runner_variations(self):
        checks = audit_scenario("fig6_slice", subprocess_checks=False)
        assert checks == []
        # The figure sweeps run serially, so the audit has nothing to vary.
        assert audit_scenario("fig8_slice", baseline="0" * 64,
                              subprocess_checks=False) == []

    def test_supplied_baseline_is_trusted(self):
        """A wrong baseline must surface as a divergence, not pass."""
        checks = audit_scenario("matrix_2x2", baseline="0" * 64,
                                subprocess_checks=False)
        assert checks and all(not check.ok for check in checks)

    def test_hashseed_variation_via_subprocess(self):
        """One fresh-interpreter run, pinned to the cheapest scenario."""
        checks = audit_scenario("fig6_slice",
                                baseline=compute_digest("fig6_slice"))
        hashseed = [c for c in checks if c.variation.startswith("hashseed=")]
        assert len(hashseed) == 2
        for check in hashseed:
            assert check.ok, check.render()


class TestAuditReport:
    def test_report_aggregation_and_rendering(self):
        good = AuditCheck("s", "jobs=2", "a" * 64, "a" * 64)
        bad = AuditCheck("s", "cache=warm", "b" * 64, "a" * 64)
        report = AuditReport(checks=[good, bad])
        assert not report.ok
        assert report.divergences == [bad]
        assert "DIVERGED" in report.render()
        assert "ok" in good.render()

    def test_empty_report_is_ok(self):
        assert AuditReport().ok
