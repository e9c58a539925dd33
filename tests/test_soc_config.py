"""Processor presets."""

import math

import pytest

from repro.errors import ConfigError
from repro.pdn.regulator import VRKind
from repro.scenarios import OVERRIDABLE_FIELDS, ScenarioSpec
from repro.soc import (
    PRESETS,
    cannon_lake_i3_8121u,
    coffee_lake_i7_9700k,
    haswell_i7_4770k,
    preset,
)


class TestPresetLookup:
    def test_all_presets_resolve(self):
        for name in PRESETS:
            assert preset(name).n_cores >= 2

    def test_lookup_case_insensitive(self):
        assert preset("Cannon_Lake").codename == "Cannon Lake"

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            preset("ice_lake")


class TestHaswell:
    def test_fivr_and_no_avx_pg(self):
        config = haswell_i7_4770k()
        assert config.vr_kind == VRKind.FIVR
        assert not config.avx_pg_present  # pre-Skylake: no AVX gating

    def test_four_cores_with_smt(self):
        config = haswell_i7_4770k()
        assert config.n_cores == 4
        assert config.supports_smt
        assert config.n_threads == 8

    def test_no_avx512(self):
        assert haswell_i7_4770k().max_vector_bits == 256


class TestCoffeeLake:
    def test_mbvr_with_avx_pg(self):
        config = coffee_lake_i7_9700k()
        assert config.vr_kind == VRKind.MBVR
        assert config.avx_pg_present

    def test_eight_cores_no_smt(self):
        config = coffee_lake_i7_9700k()
        assert config.n_cores == 8
        assert not config.supports_smt

    def test_paper_limits(self):
        config = coffee_lake_i7_9700k()
        assert config.vcc_max == pytest.approx(1.27)
        assert config.icc_max == pytest.approx(100.0)

    def test_vf_curve_through_measured_point(self):
        # Figure 6: 788 mV at 2 GHz.
        assert coffee_lake_i7_9700k().vf_curve().vcc_for(2.0) == pytest.approx(
            0.788)


class TestCannonLake:
    def test_two_cores_with_smt_and_avx512(self):
        config = cannon_lake_i3_8121u()
        assert config.n_cores == 2
        assert config.supports_smt
        assert config.max_vector_bits == 512

    def test_paper_limits(self):
        config = cannon_lake_i3_8121u()
        assert config.vcc_max == pytest.approx(1.15)
        assert config.icc_max == pytest.approx(29.0)

    def test_reset_time_is_650us(self):
        assert cannon_lake_i3_8121u().reset_time_us == pytest.approx(650.0)


class TestValidationAndOverrides:
    def test_with_overrides_replaces_fields(self):
        config = cannon_lake_i3_8121u().with_overrides(n_cores=4)
        assert config.n_cores == 4
        assert config.codename == "Cannon Lake"

    def test_disordered_frequencies_rejected(self):
        with pytest.raises(ConfigError):
            cannon_lake_i3_8121u().with_overrides(min_freq_ghz=5.0)

    def test_bad_smt_rejected(self):
        with pytest.raises(ConfigError):
            cannon_lake_i3_8121u().with_overrides(smt_per_core=4)

    def test_bad_vector_width_rejected(self):
        with pytest.raises(ConfigError):
            cannon_lake_i3_8121u().with_overrides(max_vector_bits=128)

    def test_license_table_builds(self):
        table = cannon_lake_i3_8121u().license_table()
        assert table.package_ceiling.__call__ is not None
        assert table.max_freq is not None

    def test_vr_spec_matches_fields(self):
        config = cannon_lake_i3_8121u()
        spec = config.vr_spec()
        assert spec.vcc_max == config.vcc_max
        assert spec.slew_mv_per_us == config.vr_slew_mv_per_us


class TestNonFiniteFields:
    """Non-finite physics fails at the config boundary, naming its field."""

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", OVERRIDABLE_FIELDS)
    def test_scenario_override_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ScenarioSpec(name="probe", description="non-finite override",
                         overrides=((field, value),))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_vf_point_rejected(self, value):
        points = ((1.0, 0.640), (2.2, value), (3.2, 0.950))
        with pytest.raises(ConfigError, match="vf_points"):
            cannon_lake_i3_8121u().with_overrides(vf_points=points)

    def test_negative_droop_margin_rejected(self):
        with pytest.raises(ConfigError, match="droop_margin_mv"):
            cannon_lake_i3_8121u().with_overrides(droop_margin_mv=-1.0)


class TestNonNumericFields:
    """A str or bool in a numeric field fails at the config boundary."""

    @pytest.mark.parametrize("value", ["5", True], ids=["str", "bool"])
    @pytest.mark.parametrize("field", OVERRIDABLE_FIELDS)
    def test_scenario_override_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ScenarioSpec(name="probe", description="non-numeric override",
                         overrides=((field, value),))

    def test_with_overrides_rejects_bool(self):
        with pytest.raises(ConfigError, match="r_ll_mohm"):
            cannon_lake_i3_8121u().with_overrides(r_ll_mohm=True)
