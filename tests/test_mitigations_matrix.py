"""Tests for the attacker-vs-defender mitigation matrix.

Covers the registries, the cell runner, the report exports, the cost
harness, and the acceptance properties the matrix exists to pin:

* secure mode defeats all three channel families at every tier;
* improved throttling defeats only IccSMTcovert;
* the adaptive tier strictly out-carries plain ARQ wherever ARQ lives;
* undefended plain cells are bit-identical to the committed scenario
  goldens.
"""

import json
import os

import pytest

from repro.errors import ConfigError
from repro.mitigations.matrix import (
    ATTACKERS,
    DEFENDERS,
    MatrixCell,
    attacker_names,
    cell_spec,
    defender_cost,
    defender_names,
    run_cell,
    run_matrix,
    smoke_matrix,
)
from repro.mitigations.matrix.attackers import get_attacker, session_config
from repro.mitigations.matrix.cells import (
    DEFEAT_BER,
    OPEN_BER,
    cell_from_mapping,
)
from repro.mitigations.matrix.defenders import get_defender
from repro.runner import SweepRunner

GOLDENS_DIR = os.path.join(os.path.dirname(__file__), "goldens")


@pytest.fixture(scope="module")
def full_report():
    """One full 9x7 matrix run shared by the acceptance tests."""
    return run_matrix(include_costs=False)


class TestRegistries:
    def test_attacker_axis_is_protocols_x_channels(self):
        assert len(ATTACKERS) == 9
        assert attacker_names()[0] == "plain_thread"
        for name, attacker in ATTACKERS.items():
            assert name == f"{attacker.protocol}_{attacker.channel}"

    def test_defender_axis_has_paper_and_literature_recipes(self):
        assert defender_names() == [
            "none", "per_core_ldo", "improved_throttling", "secure_mode",
            "noise_injection", "turbo_license_limit", "state_flush"]

    def test_unknown_names_raise_with_choices(self):
        with pytest.raises(ConfigError, match="plain_thread"):
            get_attacker("plain_threads")
        with pytest.raises(ConfigError, match="secure_mode"):
            get_defender("secure")

    def test_literature_defenders_source_registered_scenarios(self):
        assert DEFENDERS["state_flush"].scenario == "matrix_state_flush"
        assert "state-flush" in DEFENDERS["state_flush"].faults
        assert DEFENDERS["turbo_license_limit"].options.turbo_license_limit
        assert DEFENDERS["turbo_license_limit"].overrides == (
            ("base_freq_ghz", 3.0),)

    def test_session_config_tiers(self):
        assert session_config("arq").adaptive is None
        assert session_config("adaptive").adaptive is not None
        with pytest.raises(ConfigError, match="plain"):
            session_config("plain")


class TestCellSpec:
    def test_none_defender_returns_the_baseline_spec_object(self):
        from repro.scenarios.registry import get_spec
        assert cell_spec("cores", DEFENDERS["none"]) is get_spec(
            "baseline_cores")

    def test_literature_defender_on_cores_uses_registered_scenario(self):
        spec = cell_spec("cores", DEFENDERS["state_flush"])
        assert spec.name == "matrix_state_flush"

    def test_derived_cells_graft_defender_knobs(self):
        spec = cell_spec("thread", DEFENDERS["secure_mode"])
        assert spec.name == "matrix_secure_mode_thread"
        assert spec.options.secure_mode
        spec = cell_spec("smt", DEFENDERS["turbo_license_limit"])
        assert spec.options.turbo_license_limit
        assert dict(spec.overrides)["base_freq_ghz"] == 3.0


class TestVerdicts:
    def _cell(self, **kwargs):
        base = dict(attacker="plain_cores", defender="none",
                    protocol="plain", channel="cores",
                    scenario="baseline_cores", feasible=True,
                    residual_ber=0.0, residual_capacity_bps=100.0,
                    elapsed_ns=1.0, attempts=1, recalibrations=0,
                    degraded=False)
        base.update(kwargs)
        return MatrixCell(**base)

    def test_open_below_threshold(self):
        assert self._cell(residual_ber=OPEN_BER - 1e-9).verdict == "open"

    def test_degraded_between_thresholds(self):
        assert self._cell(residual_ber=OPEN_BER).verdict == "degraded"

    def test_defeated_at_decode_wall(self):
        assert self._cell(residual_ber=DEFEAT_BER).verdict == "defeated"

    def test_defeated_when_infeasible_or_capacityless(self):
        assert self._cell(feasible=False).verdict == "defeated"
        assert self._cell(residual_capacity_bps=0.0).verdict == "defeated"

    def test_mapping_round_trip_preserves_verdict(self):
        cell = self._cell(residual_ber=0.1)
        mapping = cell.to_mapping()
        assert mapping["verdict"] == "degraded"
        assert cell_from_mapping(mapping) == cell


class TestRunCell:
    def test_blank_names_rejected(self):
        with pytest.raises(ConfigError, match="attacker"):
            run_cell()

    def test_undefended_plain_cell_matches_committed_golden(self):
        cell = run_cell(attacker="plain_cores", defender="none")
        with open(os.path.join(GOLDENS_DIR,
                               "scenario_baseline_cores.json")) as handle:
            golden = json.load(handle)
        assert cell["document_digest"] == golden["digest"]

    def test_session_cells_have_no_document_digest(self):
        cell = run_cell(attacker="arq_cores", defender="none")
        assert cell["document_digest"] == ""
        assert cell["attempts"] >= 3  # three 8-byte frames


class TestAcceptance:
    def test_secure_mode_defeats_every_channel(self, full_report):
        assert full_report.channels_defeated("secure_mode") == {
            "thread", "smt", "cores"}

    def test_improved_throttling_defeats_only_smt(self, full_report):
        assert full_report.channels_defeated("improved_throttling") == {
            "smt"}

    def test_per_core_ldo_defeats_the_cross_core_channel(self, full_report):
        assert "cores" in full_report.channels_defeated("per_core_ldo")

    def test_adaptive_strictly_dominates_arq(self, full_report):
        assert full_report.adaptive_shortfalls() == []

    def test_undefended_cells_all_open(self, full_report):
        for attacker in full_report.attackers:
            assert full_report.cell(attacker, "none").verdict == "open"

    def test_defeated_cells_report_zero_capacity(self, full_report):
        for cell in full_report.cells:
            if cell.verdict == "defeated":
                assert cell.residual_capacity_bps == 0.0


class TestReport:
    def test_missing_cell_and_cost_raise(self, full_report):
        with pytest.raises(ConfigError, match="no cell"):
            full_report.cell("plain_cores", "nonexistent")
        with pytest.raises(ConfigError, match="no cost"):
            full_report.cost("secure_mode")

    def test_csv_has_one_row_per_cell(self, full_report):
        lines = full_report.to_csv_text().strip().split("\n")
        assert len(lines) == 1 + len(full_report.cells)
        assert lines[0].startswith("attacker,defender,protocol")

    def test_markdown_grid_covers_both_axes(self, full_report):
        table = full_report.markdown_table()
        for attacker in full_report.attackers:
            assert f"`{attacker}`" in table
        for defender in full_report.defenders:
            assert defender in table

    def test_json_text_is_valid_and_canonical(self, full_report):
        parsed = json.loads(full_report.to_json_text())
        assert parsed["attackers"] == list(full_report.attackers)
        assert len(parsed["cells"]) == len(full_report.cells)


class TestSweep:
    def test_unknown_axis_names_rejected_before_running(self):
        with pytest.raises(ConfigError, match="unknown attacker"):
            run_matrix(attackers=("no_such",), defenders=("none",))
        with pytest.raises(ConfigError, match="unknown defender"):
            run_matrix(attackers=("plain_cores",), defenders=("no_such",))

    def test_smoke_matrix_shape(self):
        report = smoke_matrix(include_costs=False)
        assert report.attackers == ("plain_cores", "arq_cores",
                                    "adaptive_cores")
        assert report.defenders == ("none", "secure_mode", "state_flush")
        assert len(report.cells) == 9

    def test_pool_and_serial_agree(self):
        serial = run_matrix(attackers=("plain_cores",),
                            defenders=("none", "secure_mode"),
                            include_costs=False)
        pooled = run_matrix(attackers=("plain_cores",),
                            defenders=("none", "secure_mode"),
                            runner=SweepRunner(jobs=2),
                            include_costs=False)
        assert serial.document() == pooled.document()


class TestCost:
    def test_none_defender_costs_nothing(self):
        cost = defender_cost("none")
        assert cost.runtime_overhead == 0.0
        assert cost.power_overhead == 0.0

    def test_secure_mode_charges_runtime(self):
        cost = defender_cost("secure_mode")
        assert cost.runtime_overhead > 0.05
        assert cost.completion_ns > cost.reference_ns

    def test_mapping_includes_derived_overheads(self):
        mapping = defender_cost("none").to_mapping()
        assert mapping["runtime_overhead"] == 0.0
        assert mapping["power_overhead"] == 0.0
