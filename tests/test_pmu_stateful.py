"""Stateful fuzzing of the central PMU (hypothesis rule machine)."""

import hypothesis.strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import settings

from repro.isa import IClass
from repro.pdn import VoltageRegulator
from repro.pmu import CentralPMU, PMUConfig
from repro.soc.config import cannon_lake_i3_8121u
from repro.soc.engine import Engine

N_CORES = 2


def build_pmu():
    config = cannon_lake_i3_8121u()
    engine = Engine()
    table = config.operating_points()
    spec = config.vr_spec()
    v0 = spec.quantize_vid(table.vcc(2.2))
    rails = [VoltageRegulator(spec, v0, name="vr")]
    pmu = CentralPMU(engine, rails, [0] * N_CORES, table,
                     requested_freq_ghz=2.2, config=PMUConfig())
    return config, engine, pmu


class PMUMachine(RuleBasedStateMachine):
    """Random request/down/active/frequency sequences against the PMU.

    Whatever the order of events, the PMU must keep the rail inside its
    electrical envelope, keep the frequency inside the part's range, and
    eventually settle with nothing throttled.
    """

    def __init__(self):
        super().__init__()
        self.config, self.engine, self.pmu = build_pmu()

    cores = st.integers(0, N_CORES - 1)
    classes = st.sampled_from(list(IClass))

    @rule(core=cores, iclass=classes)
    def request_up(self, core, iclass):
        self.pmu.request_up(core, iclass)

    @rule(core=cores, iclass=classes)
    def request_down(self, core, iclass):
        self.pmu.request_down(core, iclass)

    @rule(core=cores, active=st.booleans())
    def set_active(self, core, active):
        self.pmu.set_core_active(core, active)

    @rule(freq=st.floats(0.8, 3.2))
    def set_frequency(self, freq):
        self.pmu.set_requested_freq(round(freq, 1))

    @rule(steps=st.integers(1, 30))
    def advance(self, steps):
        for _ in range(steps):
            if not self.engine.step():
                break

    @invariant()
    def rail_within_envelope(self):
        v = self.pmu.core_voltage(0, self.engine.now)
        assert 0.5 <= v <= self.config.vcc_max + 1e-9

    @invariant()
    def frequency_within_range(self):
        assert (self.config.min_freq_ghz - 1e-9
                <= self.pmu.freq_ghz
                <= self.config.max_turbo_ghz + 1e-9)

    @invariant()
    def grants_are_valid_classes(self):
        for granted in self.pmu.granted:
            assert granted in IClass

    @invariant()
    def throttled_cores_exist(self):
        for core in self.pmu.throttled_cores():
            assert 0 <= core < N_CORES

    def teardown(self):
        # Drain everything: the PMU must settle with no core throttled
        # and the rail matching the granted guardbands (no deadlock, no
        # forgotten waiter).
        self.engine.run()
        assert self.pmu.throttled_cores() == set()
        for rail_queue in self.pmu._queues:
            assert not rail_queue


PMUMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None)
TestPMUStateful = PMUMachine.TestCase
