"""Experiment runners reject bad sweep coordinates (claims: test_claims)."""

import pytest

from repro.analysis import experiments as ex
from repro.errors import ConfigError


@pytest.mark.parametrize("sweep, kwargs", [
    (ex.fig8_throttling, {"trials": 0}),
    (ex.fig8_throttling, {"trials": -1}),
    (ex.fig14_noise_sensitivity, {"trials": 0}),
    (ex.fig13_level_distribution, {"symbols_per_level": 0}),
], ids=["fig8-trials0", "fig8-trials-1", "fig14-trials0", "fig13-symbols0"])
def test_sweeps_reject_non_positive_counts(sweep, kwargs):
    with pytest.raises(ConfigError, match="must be >= 1"):
        sweep(**kwargs)


@pytest.mark.parametrize("sweep, kwargs", [
    (ex.resilience_sweep, {"intensities": (-1.0,)}),
    (ex.resilience_sweep, {"intensities": (float("nan"),)}),
    (ex.resilience_sweep, {"intensities": (float("inf"),)}),
    (ex.fig14_noise_sensitivity, {"event_rates": (float("nan"),)}),
    (ex.fig14_noise_sensitivity, {"event_rates": (float("inf"),)}),
    (ex.fig14_noise_sensitivity, {"phi_rates": (float("nan"),)}),
    (ex.fig14_noise_sensitivity, {"phi_rates": (float("inf"),)}),
], ids=["resilience-neg", "resilience-nan", "resilience-inf",
        "fig14-event-nan", "fig14-event-inf", "fig14-phi-nan",
        "fig14-phi-inf"])
def test_sweeps_reject_bad_coordinates(sweep, kwargs):
    with pytest.raises(ConfigError, match="must be finite and >= 0"):
        sweep(**kwargs)
