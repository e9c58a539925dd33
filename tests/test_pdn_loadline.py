"""Load-line model."""

import pytest

from repro.errors import ConfigError
from repro.pdn import LoadLine


@pytest.fixture
def loadline():
    return LoadLine(0.0018)  # 1.8 mOhm, the calibrated client value


class TestLoadLine:
    def test_droop_linear_in_current(self, loadline):
        assert loadline.droop(20.0) == pytest.approx(2 * loadline.droop(10.0))

    def test_negative_current_rejected(self, loadline):
        with pytest.raises(ConfigError):
            loadline.droop(-1.0)

    def test_nonpositive_impedance_rejected(self):
        with pytest.raises(ConfigError):
            LoadLine(0.0)
        with pytest.raises(ConfigError):
            LoadLine(-0.001)

    def test_paper_figure6_step_size(self, loadline):
        # One core switching scalar -> AVX2-heavy at 2 GHz / 0.788 V:
        # dIcc = (6.0 - 3.0) nF * 0.788 V * 2 GHz = 4.73 A -> ~8.5 mV.
        d_icc = (6.0 - 3.0) * 0.788 * 2.0
        assert loadline.droop(d_icc) * 1000 == pytest.approx(8.5, abs=0.2)
