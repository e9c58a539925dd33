"""V/F curves and P-state ladders."""

import pytest

from repro.errors import ConfigError
from repro.pmu import VFCurve
from repro.pmu.dvfs import PState, pstate_ladder


@pytest.fixture
def curve():
    return VFCurve(((1.0, 0.64), (2.2, 0.809), (3.2, 0.95)))


class TestVFCurve:
    def test_exact_points(self, curve):
        assert curve.vcc_for(1.0) == pytest.approx(0.64)
        assert curve.vcc_for(2.2) == pytest.approx(0.809)

    def test_interpolation_between_points(self, curve):
        v = curve.vcc_for(1.6)
        assert 0.64 < v < 0.809
        # Linear: halfway between 1.0 and 2.2.
        assert v == pytest.approx(0.64 + (0.809 - 0.64) * 0.5)

    def test_extrapolation_above(self, curve):
        assert curve.vcc_for(3.5) > 0.95

    def test_extrapolation_below_clamped_at_floor(self, curve):
        assert curve.vcc_for(0.01) == pytest.approx(curve.vcc_floor)

    def test_monotone_over_range(self, curve):
        freqs = [0.8 + 0.1 * i for i in range(25)]
        vs = [curve.vcc_for(f) for f in freqs]
        assert all(b >= a for a, b in zip(vs, vs[1:]))

    def test_rejects_single_point(self):
        with pytest.raises(ConfigError):
            VFCurve(((1.0, 0.7),))

    def test_rejects_unordered_points(self):
        with pytest.raises(ConfigError):
            VFCurve(((2.0, 0.8), (1.0, 0.7)))

    def test_rejects_nonpositive_voltage(self):
        with pytest.raises(ConfigError):
            VFCurve(((1.0, 0.7), (2.0, -0.1)))

    def test_rejects_nonpositive_frequency_query(self, curve):
        with pytest.raises(ConfigError):
            curve.vcc_for(0.0)

    @pytest.mark.parametrize("point", [(float("nan"), 0.8), (2.0, float("nan")),
                                       (2.0, float("inf"))])
    def test_non_finite_point_rejected(self, point):
        with pytest.raises(ConfigError, match="finite"):
            VFCurve(((1.0, 0.6), point, (3.0, 1.0)))


class TestPState:
    def test_rejects_invalid(self):
        with pytest.raises(ConfigError):
            PState(0.0, 0.8)
        with pytest.raises(ConfigError):
            PState(2.0, 0.0)


class TestLadder:
    def test_ladder_descends(self, curve):
        ladder = pstate_ladder(curve, 0.8, 3.2)
        freqs = [s.freq_ghz for s in ladder]
        assert all(a > b for a, b in zip(freqs, freqs[1:]))

    def test_ladder_spans_range(self, curve):
        ladder = pstate_ladder(curve, 0.8, 3.2)
        assert ladder[0].freq_ghz == pytest.approx(3.2)
        assert ladder[-1].freq_ghz == pytest.approx(0.8)

    def test_ladder_step_spacing(self, curve):
        ladder = pstate_ladder(curve, 1.0, 2.0, step_ghz=0.5)
        assert [s.freq_ghz for s in ladder] == pytest.approx([2.0, 1.5, 1.0])

    def test_ladder_voltages_follow_curve(self, curve):
        ladder = pstate_ladder(curve, 1.0, 3.0)
        for state in ladder:
            assert state.vcc == pytest.approx(curve.vcc_for(state.freq_ghz))

    def test_rejects_bad_range(self, curve):
        with pytest.raises(ConfigError):
            pstate_ladder(curve, 2.0, 1.0)
        with pytest.raises(ConfigError):
            pstate_ladder(curve, 1.0, 2.0, step_ghz=0.0)
