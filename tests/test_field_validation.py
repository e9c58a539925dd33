"""Every config, spec and fault-model dataclass checks its fields one way.

The guard walks each validated class's declared fields: every ``int``,
``float``, ``bool`` and ``str`` field must reject a value of the wrong
kind, and every ``float`` field NaN and infinity, with that class's own
error type and a message naming the field.  A field added later cannot
skip :func:`repro.errors.check_fields`.
"""

import dataclasses
import math
import typing
from dataclasses import dataclass
from typing import Optional, Tuple

import pytest

from repro.core.channel import ChannelConfig
from repro.core.session import AdaptiveConfig, SessionConfig
from repro.core.sync import JitteredSchedule, PerturbedSchedule, SlotSchedule
from repro.errors import (
    ConfigError, MeasurementError, ProtocolError, bounded, check_fields,
)
from repro.faults.spec import FAULT_MODELS
from repro.isa.instructions import IClass
from repro.isa.workload import Loop
from repro.measure.daq import DAQSpec
from repro.microarch.tsc import DriftingTimestampCounter, TimestampCounter
from repro.pdn.droop import DroopModel, DroopSpec
from repro.pdn.loadline import LoadLine
from repro.pdn.powergate import PowerGateSpec
from repro.pdn.regulator import mbvr_spec
from repro.pmu.central import PMUConfig
from repro.pmu.dvfs import PState
from repro.pmu.thermal import AmbientRamp, ThermalSpec
from repro.scenarios import NoiseSpec, ScenarioSpec, TenantSpec, WorkloadSpec
from repro.soc.config import cannon_lake_i3_8121u
from repro.soc.noise import NoiseConfig

#: One valid instance of each validated class, with its error type.
VALIDATED = (
    (ChannelConfig(), ProtocolError),
    (SessionConfig(adaptive=AdaptiveConfig()), ProtocolError),
    (AdaptiveConfig(), ProtocolError),
    (cannon_lake_i3_8121u(), ConfigError),
    (NoiseConfig(), ConfigError),
    (NoiseSpec(), ConfigError),
    (WorkloadSpec("replay", phases=(("SCALAR_64", 100.0),)), ConfigError),
    (TenantSpec("cores", 0, 1), ConfigError),
    (ScenarioSpec(name="x", description="d", noise=NoiseSpec()),
     ConfigError),
    *((cls(), ConfigError) for cls in FAULT_MODELS.values()),
    (ThermalSpec(), ConfigError),
    (DAQSpec(), MeasurementError),
    (DroopSpec(), ConfigError),
    (DroopModel(DroopSpec(), 0.0018), ConfigError),
    (PowerGateSpec(), ConfigError),
    (LoadLine(0.0018), ConfigError),
    (mbvr_spec(vcc_max=1.52, icc_max=64.0), ConfigError),
    (TimestampCounter(2.0), ConfigError),
    (DriftingTimestampCounter(2.0, skew=1e-4), ConfigError),
    (PState(2.0, 0.9), ConfigError),
    (cannon_lake_i3_8121u().operating_points().limits, ConfigError),
    (AmbientRamp(0.0, 500.0, 0.1, 10.0), ConfigError),
    (PMUConfig(), ConfigError),
    (Loop(IClass.HEAVY_256, 60), ConfigError),
    (SlotSchedule(0.0, 10.0), ProtocolError),
    (JitteredSchedule(0.0, 10.0, jitter_ns=1.0, seed=3), ProtocolError),
    (PerturbedSchedule.wrap(SlotSchedule(0.0, 10.0), 1.0, 5.0, salt=(1,)),
     ProtocolError),
)

#: Values of the wrong kind for each declared scalar type.
WRONG_KIND = {
    int: (True, "1", 1.5),
    float: (True, "1.0", math.nan, math.inf),
    bool: ("true", 1, None),
    str: (1, None),
}


def _cases():
    for base, error in VALIDATED:
        cls = type(base)
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if not f.init:  # private state, not a knob
                continue
            for value in WRONG_KIND.get(hints[f.name], ()):
                yield pytest.param(base, error, f.name, value,
                                   id=f"{cls.__name__}.{f.name}={value!r}")


CASES = list(_cases())


def test_every_class_has_scalar_fields_to_walk():
    walked = {type(case.values[0]) for case in CASES}
    assert walked == {type(base) for base, _ in VALIDATED}


@pytest.mark.parametrize("base, error, name, value", CASES)
def test_wrong_kind_is_rejected_naming_the_field(base, error, name, value):
    with pytest.raises(error, match=rf"\b{name} must be"):
        dataclasses.replace(base, **{name: value})


@dataclass(frozen=True)
class _Probe:
    count: int = bounded(1, ge=0, lt=10)
    level: float = bounded(0.5, gt=0, le=1)
    pairs: Tuple[Tuple[str, float], ...] = ()
    inner: Optional[ChannelConfig] = None
    slot: Optional[int] = bounded(None, ge=0)

    def __post_init__(self):
        check_fields(self, label="probe")


class TestCheckFields:
    """The rules themselves, on a small probe class."""

    @pytest.mark.parametrize("kwargs, message", [
        ({"count": -1}, "probe.count must be >= 0, got -1"),
        ({"count": 10}, "probe.count must be < 10, got 10"),
        ({"level": 0}, "probe.level must be > 0, got 0.0"),
        ({"level": 1.5}, "probe.level must be <= 1, got 1.5"),
        ({"level": 10 ** 400}, "probe.level must be finite"),
        ({"pairs": [("a", 1.0), ("b", "2")]},
         "probe.pairs[1][1] must be a number, got '2'"),
        ({"pairs": [("a",)]}, "probe.pairs[0] must have 2 items"),
        ({"pairs": "ab"}, "probe.pairs must be a list, got 'ab'"),
        ({"inner": {"slot_us": 1.0}},
         "probe.inner must be a ChannelConfig, got {'slot_us': 1.0}"),
        ({"slot": -1}, "probe.slot must be >= 0, got -1"),
        ({"slot": 1.0}, "probe.slot must be an integer, got 1.0"),
    ])
    def test_rejections_name_the_path(self, kwargs, message):
        with pytest.raises(ConfigError) as info:
            _Probe(**kwargs)
        assert str(info.value).startswith(message)

    def test_stores_normalised_values(self):
        probe = _Probe(level=1, pairs=[["a", 1]], inner=ChannelConfig())
        assert repr(probe.level) == "1.0"
        assert probe.pairs == (("a", 1.0),)
        assert isinstance(probe.pairs[0][1], float)

    def test_unknown_bound_is_a_declaration_error(self):
        with pytest.raises(TypeError, match="between"):
            bounded(1, between=(0, 2))
