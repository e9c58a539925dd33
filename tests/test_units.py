"""Unit-conversion helpers."""

import pytest

from repro import units


class TestTimeConversions:
    def test_us_to_ns(self):
        assert units.us_to_ns(1.0) == 1_000.0

    def test_ms_to_ns(self):
        assert units.ms_to_ns(1.0) == 1_000_000.0

    def test_s_to_ns(self):
        assert units.s_to_ns(1.0) == 1_000_000_000.0

    def test_ns_to_us_roundtrip(self):
        assert units.ns_to_us(units.us_to_ns(3.7)) == pytest.approx(3.7)

    def test_ns_to_ms_roundtrip(self):
        assert units.ns_to_ms(units.ms_to_ns(0.25)) == pytest.approx(0.25)

    def test_ns_to_s_roundtrip(self):
        assert units.ns_to_s(units.s_to_ns(1.5)) == pytest.approx(1.5)


class TestElectrical:
    def test_mv_to_v(self):
        assert units.mv_to_v(788.0) == pytest.approx(0.788)

    def test_v_to_mv_roundtrip(self):
        assert units.v_to_mv(units.mv_to_v(13.0)) == pytest.approx(13.0)

    def test_mohm_to_ohm(self):
        assert units.mohm_to_ohm(1.8) == pytest.approx(0.0018)

    def test_dynamic_current_dimensions(self):
        # 6 nF * 0.8 V * 2.0 GHz = 9.6 A, exactly.
        assert units.dynamic_current(6.0, 0.8, 2.0) == pytest.approx(9.6)

    def test_dynamic_current_zero_at_zero_cdyn(self):
        assert units.dynamic_current(0.0, 1.0, 3.0) == 0.0

    def test_dynamic_power_is_current_times_voltage(self):
        i = units.dynamic_current(6.0, 0.8, 2.0)
        p = units.dynamic_power(6.0, 0.8, 2.0)
        assert p == pytest.approx(i * 0.8)


class TestBandwidth:
    def test_bits_per_second(self):
        # 2 bits in 690 us -> ~2899 bps, the paper's headline number.
        assert units.bits_per_second(2, units.us_to_ns(690)) == pytest.approx(
            2898.55, rel=1e-3)

    def test_bits_per_second_rejects_zero_time(self):
        with pytest.raises(ValueError):
            units.bits_per_second(1, 0.0)

    def test_bits_per_second_rejects_negative_time(self):
        with pytest.raises(ValueError):
            units.bits_per_second(1, -5.0)
