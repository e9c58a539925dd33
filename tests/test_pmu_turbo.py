"""Turbo licenses."""

import math

import pytest

from repro.errors import ConfigError
from repro.isa import IClass
from repro.pmu import TurboLicense, TurboLicenseTable, license_for_class
from repro.soc.config import cannon_lake_i3_8121u


@pytest.fixture
def table():
    return TurboLicenseTable({
        TurboLicense.LVL0: (3.2, 3.1),
        TurboLicense.LVL1: (3.0, 2.9),
        TurboLicense.LVL2: (2.8, 2.6),
    })


class TestLicenseForClass:
    def test_scalar_is_lvl0(self):
        assert license_for_class(IClass.SCALAR_64) == TurboLicense.LVL0

    def test_light_256_is_lvl0(self):
        assert license_for_class(IClass.LIGHT_256) == TurboLicense.LVL0

    def test_heavy_256_is_lvl1(self):
        assert license_for_class(IClass.HEAVY_256) == TurboLicense.LVL1

    def test_light_512_is_lvl1(self):
        assert license_for_class(IClass.LIGHT_512) == TurboLicense.LVL1

    def test_heavy_512_is_lvl2(self):
        assert license_for_class(IClass.HEAVY_512) == TurboLicense.LVL2


class TestTable:
    def test_max_freq_by_core_count(self, table):
        assert table.max_freq(TurboLicense.LVL0, 1) == pytest.approx(3.2)
        assert table.max_freq(TurboLicense.LVL0, 2) == pytest.approx(3.1)

    def test_core_count_beyond_row_uses_last_entry(self, table):
        assert table.max_freq(TurboLicense.LVL1, 5) == pytest.approx(2.9)

    def test_rejects_zero_cores(self, table):
        with pytest.raises(ConfigError):
            table.max_freq(TurboLicense.LVL0, 0)

    def test_missing_row_rejected(self):
        with pytest.raises(ConfigError):
            TurboLicenseTable({TurboLicense.LVL0: (3.2,)})

    def test_empty_row_rejected(self):
        with pytest.raises(ConfigError):
            TurboLicenseTable({
                TurboLicense.LVL0: (),
                TurboLicense.LVL1: (3.0,),
                TurboLicense.LVL2: (2.8,),
            })

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_ceiling_rejected_through_config(self, value):
        # A NaN ceiling made min(requested, nan) drop the license limit.
        config = cannon_lake_i3_8121u()
        ceilings = dict(config.turbo_ceilings)
        ceilings[TurboLicense.LVL2] = (value, 2.6)
        with pytest.raises(ConfigError, match="LVL2"):
            config.with_overrides(turbo_ceilings=ceilings)


class TestPackageCeiling:
    def test_worst_core_dominates(self, table):
        ceiling = table.package_ceiling([IClass.SCALAR_64, IClass.HEAVY_512])
        assert ceiling == pytest.approx(2.6)  # LVL2 at 2 cores

    def test_all_scalar_full_turbo(self, table):
        assert table.package_ceiling([IClass.SCALAR_64]) == pytest.approx(3.2)

    def test_higher_license_lowers_ceiling(self, table):
        lvl0 = table.package_ceiling([IClass.SCALAR_64])
        lvl1 = table.package_ceiling([IClass.HEAVY_256])
        lvl2 = table.package_ceiling([IClass.HEAVY_512])
        assert lvl0 > lvl1 > lvl2

    def test_rejects_empty(self, table):
        with pytest.raises(ConfigError):
            table.package_ceiling([])
