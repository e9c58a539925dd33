"""Mitigation recipes and the Table 1 effectiveness matrix."""

import pytest

from repro.errors import ConfigError
from repro.mitigations import (
    TABLE1_DEFENDERS,
    evaluate_all,
    evaluate_mitigation,
)
from repro.mitigations.matrix.defenders import get_defender
from repro.scenarios import ScenarioSpec, build_system
from repro.soc.system import SystemOptions


class TestRecipes:
    def test_per_core_vr_options(self):
        options = get_defender("per_core_ldo").options
        assert options.per_core_vr and options.ldo_rails

    def test_per_core_vr_without_ldo(self):
        # Per-core rails alone keep the part's native regulator spec.
        system = build_system(ScenarioSpec(
            name="per_core_native", description="d",
            options=SystemOptions(per_core_vr=True)))
        assert len(system.pmu.rails) == system.config.n_cores
        assert all(rail.spec == system.config.vr_spec()
                   for rail in system.pmu.rails)

    def test_improved_throttling_options(self):
        assert get_defender("improved_throttling").options.improved_throttling

    def test_secure_mode_options(self):
        assert get_defender("secure_mode").options.secure_mode

    def test_none_defender_options_are_default(self):
        assert get_defender("none").options == SystemOptions()


class TestSingleEvaluations:
    def test_unknown_channel_rejected(self):
        with pytest.raises(ConfigError):
            evaluate_mitigation("no_such_channel", "secure_mode")

    def test_baseline_channel_is_open_without_mitigation(self):
        outcome = evaluate_mitigation("thread", "none")
        assert outcome.channel == "IccThreadCovert"
        assert outcome.verdict == "OPEN"
        assert outcome.ber == 0.0


class TestTable1Matrix:
    """The Table 1 matrix's defenders and cells; its verdicts are claims."""

    @pytest.fixture(scope="class")
    def report(self):
        return evaluate_all()

    def test_overhead_notes_present(self, report):
        assert {o.defender for o in report.outcomes} == set(TABLE1_DEFENDERS)
        assert "area" in get_defender("per_core_ldo").overhead_note
        assert "power" in get_defender("secure_mode").overhead_note

    def test_unknown_cell_rejected(self, report):
        with pytest.raises(ConfigError):
            report.verdict("IccThreadCovert", "none")


class TestReportEdgeCases:
    """All-cells-defeated shape and the blocked property."""

    def test_secure_mode_only_matrix_is_all_defeated(self):
        outcomes = [evaluate_mitigation(kind, "secure_mode")
                    for kind in ("thread", "smt", "cores")]
        assert all(o.verdict == "MITIGATED" for o in outcomes)
        assert all(o.blocked for o in outcomes)

    def test_blocked_tracks_the_verdict_string(self):
        for kind in ("thread", "smt", "cores"):
            outcome = evaluate_mitigation(kind, "improved_throttling")
            assert outcome.blocked == (outcome.verdict == "MITIGATED")
