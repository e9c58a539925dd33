"""Golden round-trip, drift detection, and the perturbation demo."""

import json

import pytest

from repro.errors import ConfigError
from repro.pdn.loadline import LoadLine
from repro.verify.goldens import (
    check_all,
    check_scenario,
    golden_path,
    load_golden,
    update_goldens,
    write_golden,
)
from repro.verify.scenarios import compute_document, scenario_names


class TestRoundTrip:
    def test_update_then_check_is_ok(self, tmp_path):
        """--update-goldens followed by a check passes for every scenario."""
        update_goldens(["fig6_slice"], goldens_dir=tmp_path)
        check = check_scenario("fig6_slice", goldens_dir=tmp_path)
        assert check.ok, check.render()
        assert check.expected_digest == check.actual_digest

    def test_written_golden_is_reviewable_json(self, tmp_path):
        update_goldens(["fig6_slice"], goldens_dir=tmp_path)
        payload = json.loads(golden_path(
            "fig6_slice", tmp_path).read_text())
        assert payload["schema"] == 1
        assert payload["scenario"] == "fig6_slice"
        assert set(payload["sections"]) == set(payload["document"])

    def test_missing_golden_reported_not_crashed(self, tmp_path):
        check = check_scenario("fig6_slice", goldens_dir=tmp_path)
        assert check.status == "missing"
        assert not check.ok
        assert "--update-goldens" in check.render()

    def test_schema_mismatch_raises(self, tmp_path):
        path = write_golden("fig6_slice",
                            compute_document("fig6_slice"), tmp_path)
        payload = json.loads(path.read_text())
        payload["schema"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="schema"):
            load_golden("fig6_slice", tmp_path)


class TestCommittedGoldens:
    def test_every_scenario_has_a_committed_golden(self):
        for name in scenario_names():
            assert load_golden(name) is not None, (
                f"tests/goldens/{name}.json missing; run "
                f"python -m repro.verify --update-goldens")

    def test_fast_scenarios_match_committed_goldens(self):
        """The cheap scenarios are re-verified inside the tier-1 suite.

        ``demo_transfer`` pins the covert-transfer path, engine counters
        included.  (The full set, including the slower sweep slices, runs
        in the CI verify job via ``python -m repro.verify``.)
        """
        for check in check_all(["demo_transfer", "fig6_slice",
                                "fig8_slice"]):
            assert check.ok, check.render()


class TestPerturbationDemo:
    def test_perturbed_loadline_is_caught(self, monkeypatch):
        """The demonstration the harness exists for: nudge one physical
        constant (load-line droop, +10%) and the golden check must fail
        with a diagnosable section-level drift report.

        ``fig8_slice`` is the sentinel: the inflated droop moves the
        guardband transitions, which shifts the throttling windows the
        TP distributions measure.  (``fig6_slice`` would need a larger
        nudge — its document pins VID-quantised rail plateaus, so a
        sub-step change is genuinely absorbed by the regulator model.)
        """
        original = LoadLine.droop

        def inflated(self, icc):
            return original(self, icc) * 1.10

        monkeypatch.setattr(LoadLine, "droop", inflated)
        check = check_scenario("fig8_slice")
        assert check.status == "mismatch"
        assert check.drifted_sections, check.render()
        rendered = check.render()
        assert "DRIFT" in rendered
        assert any("->" in line for line in check.diff_lines)

    def test_unperturbed_check_still_ok(self):
        """Control for the demo above: without the nudge, it passes."""
        assert check_scenario("fig8_slice").ok
