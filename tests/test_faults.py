"""Unit tests for the fault-injection subsystem (`repro.faults`).

Covers the determinism contract (seeded streams, bit-identical
replays), each model's seam behaviour, the injector's wiring rules,
spec-string parsing, and the end-to-end guarantees the resilience
experiment relies on: intensity 0 is a perfect no-op, and the default
suite actually damages the cross-channel transfers.
"""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import typing
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from repro import System, cannon_lake_i3_8121u
from repro.core import IccCoresCovert, IccThreadCovert, PerturbedSchedule, SlotSchedule
from repro.core.sync import fold_key, uniform
from repro.errors import CalibrationError, ConfigError
from repro.faults import (
    FaultInjector,
    GrantQueueInterference,
    RailVoltageJitter,
    ReceiverClockSkew,
    SampleDropout,
    SlotScheduleJitter,
    StateFlush,
    ThermalDriftRamp,
    default_fault_suite,
    fault_model_names,
    parse_fault_spec,
)
from repro.faults.base import SEED_SPACE
from repro.faults.spec import FAULT_MODELS
from repro.isa.instructions import IClass
from repro.microarch.tsc import DriftingTimestampCounter
from repro.units import us_to_ns


def fresh_system():
    """A Cannon Lake system, the resilience experiments' default part."""
    return System(cannon_lake_i3_8121u())


#: Every float knob a model constructor takes, ``intensity`` included;
#: ``dropout``'s ``probability`` is range-checked in TestSampleDropout.
FLOAT_KNOBS = [
    (RailVoltageJitter, "intensity"),
    (RailVoltageJitter, "sigma_mv"),
    (GrantQueueInterference, "burst_rate_per_s"),
    (GrantQueueInterference, "hold_us"),
    (GrantQueueInterference, "horizon_ms"),
    (ThermalDriftRamp, "rate_c_per_s"),
    (ThermalDriftRamp, "max_drift_c"),
    (ThermalDriftRamp, "step_us"),
    (ReceiverClockSkew, "skew_ppm"),
    (ReceiverClockSkew, "drift_ppm_per_s"),
    (SlotScheduleJitter, "sigma_us"),
    (SlotScheduleJitter, "cap_us"),
    (StateFlush, "quantum_us"),
    (StateFlush, "hold_us"),
    (StateFlush, "horizon_ms"),
]


class TestBaseContract:
    def test_negative_intensity_rejected(self):
        with pytest.raises(ConfigError):
            RailVoltageJitter(intensity=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("cls,knob", FLOAT_KNOBS,
                             ids=[f"{c.name}.{k}" for c, k in FLOAT_KNOBS])
    def test_non_finite_knob_rejected(self, cls, knob, value):
        with pytest.raises(ConfigError, match="finite"):
            cls(**{knob: value})

    def test_rng_streams_are_deterministic(self):
        a = RailVoltageJitter(seed=7).rng("x", 1)
        b = RailVoltageJitter(seed=7).rng("x", 1)
        assert a.random(4).tolist() == b.random(4).tolist()

    def test_rng_streams_differ_by_seed_and_salt(self):
        base = RailVoltageJitter(seed=7).rng("x", 1).random(4).tolist()
        assert RailVoltageJitter(seed=8).rng("x", 1).random(4).tolist() != base
        assert RailVoltageJitter(seed=7).rng("x", 2).random(4).tolist() != base

    def test_rng_streams_differ_across_models(self):
        jitter = RailVoltageJitter(seed=7).rng("s").random(4).tolist()
        dropout = SampleDropout(seed=7).rng("s").random(4).tolist()
        assert jitter != dropout

    def test_describe_round_trips_through_parser(self):
        model = SlotScheduleJitter(sigma_us=2.5, cap_us=8.0,
                                   intensity=1.5, seed=3)
        injector = parse_fault_spec(model.describe())
        assert injector.describe() == model.describe()

    def test_describe_keeps_full_precision(self):
        model = SlotScheduleJitter(sigma_us=1.2345678)
        assert model.describe().startswith("slot-jitter:sigma_us=1.2345678,")
        rebuilt = parse_fault_spec(model.describe()).models[0]
        assert rebuilt.sigma_us == 1.2345678

    @pytest.mark.parametrize("cls, knob", [
        (SlotScheduleJitter, "seed"), (StateFlush, "quantum_us"),
        (RailVoltageJitter, "intensity"), (GrantQueueInterference, "core")])
    def test_bool_knob_rejected(self, cls, knob):
        with pytest.raises(ConfigError, match=rf"^{knob} must be"):
            cls(**{knob: True})

    def test_string_knob_rejected_as_config_error(self):
        with pytest.raises(ConfigError,
                           match="sigma_mv must be a number, got '2'"):
            RailVoltageJitter(sigma_mv="2")


def _knob_values(cls):
    """Hypothesis strategy of in-bound keyword knobs for ``cls``."""
    hints = typing.get_type_hints(cls)
    knobs = {}
    for f in dataclasses.fields(cls):
        if not f.init:
            continue
        kind, bounds = hints[f.name], f.metadata
        optional = typing.get_origin(kind) is typing.Union
        if optional:
            kind = typing.get_args(kind)[0]
        if kind is int:
            values = st.integers(min_value=bounds.get("ge", -2**40),
                                 max_value=2**40)
        else:
            low = bounds.get("ge", bounds.get("gt"))
            high = bounds.get("le", bounds.get("lt"))
            values = st.floats(min_value=low, max_value=high,
                               exclude_min="gt" in bounds,
                               exclude_max="lt" in bounds,
                               allow_nan=False, allow_infinity=False)
        knobs[f.name] = st.none() | values if optional else values
    return st.fixed_dictionaries(knobs)


def _init_fields(model):
    return {f.name: getattr(model, f.name)
            for f in dataclasses.fields(model) if f.init}


class TestDescribeRoundTrip:
    """Every model's spec string rebuilds the model's knobs exactly."""

    @pytest.mark.parametrize("name", sorted(FAULT_MODELS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_parse_of_describe_rebuilds_equal_fields(self, name, data):
        cls = FAULT_MODELS[name]
        model = cls(**data.draw(_knob_values(cls)))
        rebuilt = parse_fault_spec(model.describe()).models
        assert len(rebuilt) == 1 and type(rebuilt[0]) is cls
        assert _init_fields(rebuilt[0]) == _init_fields(model)
        assert rebuilt[0].describe() == model.describe()

    @settings(max_examples=60, deadline=None)
    @given(skew=st.floats(allow_nan=False, allow_infinity=False),
           drift=st.floats(allow_nan=False, allow_infinity=False))
    @example(skew=-0.0, drift=2000.0)
    @example(skew=200.0, drift=-0.0)
    def test_signed_zero_knob_keeps_its_sign(self, skew, drift):
        # "-0" would read back as the integer 0, i.e. +0.0.
        model = ReceiverClockSkew(skew_ppm=skew, drift_ppm_per_s=drift)
        rebuilt = parse_fault_spec(model.describe()).models[0]
        assert rebuilt.describe() == model.describe()
        assert repr((rebuilt.skew_ppm, rebuilt.drift_ppm_per_s)) == repr(
            (skew, drift))


class TestRailVoltageJitter:
    def test_adds_noise_of_configured_sigma(self):
        model = RailVoltageJitter(sigma_mv=5.0, seed=1)
        values = np.zeros(4000)
        out = model.perturb_samples("rail0", np.arange(4000.0), values)
        assert out.std() == pytest.approx(5e-3, rel=0.1)
        assert model.events == 4000

    def test_intensity_zero_is_identity(self):
        model = RailVoltageJitter(sigma_mv=5.0, intensity=0.0)
        values = np.ones(16)
        out = model.perturb_samples("rail0", np.arange(16.0), values)
        assert out is values
        assert model.events == 0

    def test_fresh_model_replays_identically(self):
        def run():
            model = RailVoltageJitter(sigma_mv=2.0, seed=5)
            first = model.perturb_samples("r", np.arange(8.0), np.zeros(8))
            second = model.perturb_samples("r", np.arange(8.0), np.zeros(8))
            return first, second

        (a1, a2), (b1, b2) = run(), run()
        assert a1.tolist() == b1.tolist()
        assert a2.tolist() == b2.tolist()
        # successive calls draw fresh noise, not the same vector
        assert a1.tolist() != a2.tolist()


class TestSampleDropout:
    def test_certain_dropout_holds_first_value(self):
        model = SampleDropout(probability=1.0, seed=0)
        values = np.array([3.0, 4.0, 5.0, 6.0])
        out = model.perturb_samples("r", np.arange(4.0), values)
        assert out.tolist() == [3.0, 3.0, 3.0, 3.0]

    def test_dropped_samples_hold_last_kept_value(self):
        model = SampleDropout(probability=0.4, seed=2)
        values = np.arange(200.0)
        out = model.perturb_samples("r", np.arange(200.0), values)
        assert model.events > 0
        kept = out == values
        assert kept[0]
        # every output value is some input value at an index <= its own
        for i in range(1, len(out)):
            assert out[i] <= values[i]
            assert out[i] in values[:i + 1]

    def test_probability_validated(self):
        with pytest.raises(ConfigError):
            SampleDropout(probability=1.5)


def _bursts(model, count, max_vector_bits=512):
    """The first ``count`` (gap_ns, class) bursts ``model`` draws."""
    return list(itertools.islice(model.bursts(max_vector_bits), count))


class TestGrantBurstDraws:
    """grant-interference draws its bursts from the counter-hash stream."""

    def test_burst_k_reads_draws_2k_and_2k_plus_1_of_its_key(self):
        model = GrantQueueInterference(seed=9)
        key = fold_key((SEED_SPACE, 9, zlib.crc32(b"grant-interference"),
                        zlib.crc32(b"bursts")))
        classes = GrantQueueInterference.BURST_CLASSES
        for k, (gap_ns, iclass) in enumerate(_bursts(model, 16)):
            assert gap_ns == -(1e9 / 300.0) * math.log1p(-uniform(key, 2 * k))
            assert iclass is classes[int(uniform(key, 2 * k + 1) * 4)]

    def test_same_seed_replays_and_another_seed_differs(self):
        first = _bursts(GrantQueueInterference(seed=4), 64)
        assert _bursts(GrantQueueInterference(seed=4), 64) == first
        assert _bursts(GrantQueueInterference(seed=5), 64) != first

    def test_stream_is_disjoint_from_slot_jitter(self):
        grant = GrantQueueInterference(seed=4)
        key = fold_key(grant.seed_parts("bursts"))
        draws = {uniform(key, i) for i in range(4000)}
        schedule = SlotSchedule(epoch_ns=0.0, slot_ns=1000.0)
        for party in ("sender", "receiver"):
            view = SlotScheduleJitter(seed=4).perturb_schedule(schedule, party)
            jitter_key = fold_key(view.salt)
            assert jitter_key != key
            assert draws.isdisjoint(uniform(jitter_key, i)
                                    for i in range(4000))

    @pytest.mark.parametrize("rate, intensity", [(300.0, 1.0), (2000.0, 0.5)])
    def test_mean_gap_matches_the_rate(self, rate, intensity):
        model = GrantQueueInterference(burst_rate_per_s=rate,
                                       intensity=intensity, seed=2)
        gaps = [gap for gap, _ in _bursts(model, 20_000)]
        assert min(gaps) > 0
        assert sum(gaps) / len(gaps) == pytest.approx(
            1e9 / (rate * intensity), rel=0.03)

    @pytest.mark.parametrize("bits", [256, 512])
    def test_every_allowed_class_and_no_wider_one(self, bits):
        drawn = {iclass for _, iclass in
                 _bursts(GrantQueueInterference(seed=6), 2000, bits)}
        assert drawn == {c for c in GrantQueueInterference.BURST_CLASSES
                         if c.width_bits <= bits}
        assert (IClass.HEAVY_512 in drawn) == (bits == 512)


class TestPerturbedSchedule:
    def test_delays_are_capped_and_non_negative(self):
        base = SlotSchedule(epoch_ns=1000.0, slot_ns=750_000.0)
        sched = PerturbedSchedule.wrap(base, sigma_ns=us_to_ns(30.0),
                                       cap_ns=us_to_ns(50.0), salt=(1, 2))
        delays = [sched.delay(i) for i in range(200)]
        assert all(0.0 <= d <= us_to_ns(50.0) for d in delays)
        assert max(delays) > 0.0

    def test_same_salt_same_delays_different_salt_different(self):
        base = SlotSchedule(epoch_ns=0.0, slot_ns=750_000.0)
        a = PerturbedSchedule.wrap(base, 1000.0, 5000.0, salt=(1,))
        b = PerturbedSchedule.wrap(base, 1000.0, 5000.0, salt=(1,))
        c = PerturbedSchedule.wrap(base, 1000.0, 5000.0, salt=(2,))
        assert [a.delay(i) for i in range(8)] == [b.delay(i) for i in range(8)]
        assert [a.delay(i) for i in range(8)] != [c.delay(i) for i in range(8)]

    def test_indexing_follows_unperturbed_grid(self):
        base = SlotSchedule(epoch_ns=0.0, slot_ns=1000.0)
        sched = PerturbedSchedule.wrap(base, 200.0, 900.0, salt=(3,))
        for i in range(5):
            assert sched.slot_start(i) >= base.slot_start(i)
            assert sched.slot_index_at(base.slot_start(i) + 1.0) == i
        assert sched.next_slot_after(2500.0) == base.next_slot_after(2500.0)

    def test_delays_follow_capped_half_normal(self):
        # Cap at 1.5 sigma so ~13% of the 1e5 draws sit on the cap: the
        # atom must match P(|N| >= cap) and the rest |N(0, sigma)|
        # truncated at the cap (KS cannot test a CDF with an atom).
        sigma, cap = 1000.0, 1500.0
        sched = PerturbedSchedule.wrap(SlotSchedule(0.0, 750_000.0),
                                       sigma, cap, salt=(1, 2))
        delays = np.array([sched.delay(i) for i in range(100_000)])
        on_cap = delays == cap
        p_cap = 2.0 * stats.norm.sf(cap / sigma)
        assert stats.binomtest(int(on_cap.sum()), delays.size,
                               p_cap).pvalue > 1e-3
        below = stats.truncnorm(0.0, cap / sigma, scale=sigma)
        assert stats.kstest(delays[~on_cap], below.cdf).pvalue > 1e-3

    def test_delay_independent_of_query_order(self):
        base = SlotSchedule(epoch_ns=0.0, slot_ns=750_000.0)
        forward = PerturbedSchedule.wrap(base, 1000.0, 5000.0, salt=(4,))
        backward = PerturbedSchedule.wrap(base, 1000.0, 5000.0, salt=(4,))
        late = [backward.delay(i) for i in (10**6, 999, 3)]
        reverse = {i: backward.delay(i) for i in reversed(range(64))}
        assert [forward.delay(i) for i in range(64)] == [
            reverse[i] for i in range(64)]
        assert late == [forward.delay(i) for i in (10**6, 999, 3)]

    def test_draws_independent_of_hash_seed(self):
        program = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "from repro.core import JitteredSchedule, SlotSchedule\n"
            "from repro.faults import SlotScheduleJitter\n"
            "base = SlotSchedule(0.0, 750000.0)\n"
            "rx = SlotScheduleJitter(seed=3).perturb_schedule(base, 'receiver')\n"
            "jit = JitteredSchedule(0.0, 1000.0, jitter_ns=300.0, seed=7)\n"
            "print([rx.delay(i).hex() for i in range(8)],\n"
            "      [jit.slot_start(i).hex() for i in range(8)])\n"
        ).format(src=os.path.abspath("src"))
        outputs = set()
        for seed in ("0", "424242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            out = subprocess.run([sys.executable, "-c", program], env=env,
                                 capture_output=True, text=True, check=True)
            outputs.add(out.stdout)
        assert len(outputs) == 1

    def test_pinned_draws(self):
        # Golden (salt, index) -> delay pairs: a change of generator must
        # fail here, not only as drifted goldens downstream.
        base = SlotSchedule(epoch_ns=0.0, slot_ns=750_000.0)
        sched = PerturbedSchedule.wrap(base, 1000.0, 5000.0, salt=(1, 2))
        assert [sched.delay(i) for i in (0, 1, 7, 10**6)] == [
            404.53942932833274, 62.74847682208549, 188.743018322919,
            1121.37918399482]


class TestDriftingTsc:
    def test_positive_skew_runs_fast(self):
        nominal = fresh_system().tsc
        fast = DriftingTimestampCounter(tsc_ghz=nominal.tsc_ghz, skew=1e-3)
        t = 1e6
        assert fast.read(t) > nominal.read(t)

    def test_drift_grows_over_time(self):
        tsc = DriftingTimestampCounter(tsc_ghz=2.0, skew=0.0,
                                       drift_per_s=1e-2)
        early = tsc.read(1e6) - 2.0 * 1e6
        late = tsc.read(2e9) - 2.0 * 2e9
        assert late > early

    def test_guards(self):
        with pytest.raises(ConfigError):
            DriftingTimestampCounter(tsc_ghz=2.0, skew=-1.5)
        with pytest.raises(ConfigError):
            DriftingTimestampCounter(tsc_ghz=2.0).read(-1.0)


class TestInjectorWiring:
    def test_attach_registers_on_system(self):
        system = fresh_system()
        injector = FaultInjector([SlotScheduleJitter()]).attach(system)
        assert system.faults is injector

    def test_attach_twice_rejected(self):
        system = fresh_system()
        injector = FaultInjector([SlotScheduleJitter()]).attach(system)
        with pytest.raises(ConfigError):
            injector.attach(fresh_system())
        with pytest.raises(ConfigError):
            FaultInjector([SlotScheduleJitter()]).attach(system)

    def test_clock_skew_swaps_the_tsc(self):
        system = fresh_system()
        FaultInjector([ReceiverClockSkew()]).attach(system)
        assert isinstance(system.tsc, DriftingTimestampCounter)

    def test_slot_slack_budget(self):
        measurement_only = FaultInjector([RailVoltageJitter()])
        assert measurement_only.extra_slot_slack_ns() == 0.0
        jittery = FaultInjector([SlotScheduleJitter(cap_us=10.0),
                                 SlotScheduleJitter(cap_us=5.0)])
        assert jittery.extra_slot_slack_ns() == us_to_ns(15.0)

    def test_perturb_samples_respects_model_kind(self):
        injector = FaultInjector([SlotScheduleJitter(),
                                  RailVoltageJitter(sigma_mv=3.0)])
        out = injector.perturb_samples("r", np.arange(64.0), np.zeros(64))
        assert out.std() > 0.0
        counts = injector.event_counts()
        assert counts["rail-jitter"] == 64
        assert counts["slot-jitter"] == 0

    def test_non_model_rejected(self):
        with pytest.raises(ConfigError):
            FaultInjector([object()])

    def test_attach_daq_routes_samples(self):
        system = fresh_system()
        injector = FaultInjector([RailVoltageJitter(sigma_mv=5.0)])
        injector.attach(system)
        system.run_until(us_to_ns(50.0))
        from repro.measure.daq import DAQCard, DAQSpec

        daq = DAQCard(DAQSpec())
        injector.attach_daq(daq)
        clean = DAQCard(DAQSpec()).sample(
            system.vcc_signal(0), 0.0, us_to_ns(40.0), 1e6, name="rail0")
        noisy = daq.sample(
            system.vcc_signal(0), 0.0, us_to_ns(40.0), 1e6, name="rail0")
        assert noisy.values.tolist() != clean.values.tolist()


class TestSpecParsing:
    def test_default_alias_builds_whole_suite(self):
        injector = parse_fault_spec("default")
        assert len(injector.models) == len(default_fault_suite())

    def test_default_intensity_and_seed_forwarded(self):
        injector = parse_fault_spec("default:intensity=1.5,seed=9")
        assert all(m.intensity == 1.5 and m.seed == 9
                   for m in injector.models)

    def test_default_rejects_model_knobs(self):
        with pytest.raises(ConfigError):
            parse_fault_spec("default:sigma_us=2")

    def test_multi_clause_spec(self):
        injector = parse_fault_spec(
            "slot-jitter:sigma_us=2;rail-jitter:sigma_mv=1,intensity=2")
        assert [m.name for m in injector.models] == ["slot-jitter",
                                                     "rail-jitter"]
        assert injector.models[1].intensity == 2.0

    def test_unknown_model_lists_names(self):
        with pytest.raises(ConfigError, match="slot-jitter"):
            parse_fault_spec("bogus")

    def test_malformed_knob_rejected(self):
        with pytest.raises(ConfigError):
            parse_fault_spec("slot-jitter:sigma_us")
        with pytest.raises(ConfigError):
            parse_fault_spec("slot-jitter:sigma_us=abc")
        with pytest.raises(ConfigError):
            parse_fault_spec("rail-jitter:bogus_knob=2")

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigError):
            parse_fault_spec("")
        with pytest.raises(ConfigError):
            parse_fault_spec(";;")

    def test_int_knobs_coerced(self):
        injector = parse_fault_spec("grant-interference:core=1,seed=4")
        model = injector.models[0]
        assert model.core == 1 and isinstance(model.core, int)
        assert model.seed == 4 and isinstance(model.seed, int)

    @pytest.mark.parametrize("clause, knob", [
        ("grant-interference:core=1.5,seed=2", "core"),
        ("grant-interference:core=1,seed=2.7", "seed"),
        ("default:seed=1e3", "seed")])
    def test_fractional_int_knob_rejected_not_truncated(self, clause, knob):
        with pytest.raises(ConfigError, match=rf"^{knob} must be an integer"):
            parse_fault_spec(clause)

    def test_float_knob_takes_integer_literal(self):
        model = parse_fault_spec("slot-jitter:sigma_us=2").models[0]
        assert model.sigma_us == 2.0 and isinstance(model.sigma_us, float)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("clause", ["default:intensity",
                                        "default:seed",
                                        "grant-interference:core"])
    def test_non_finite_knob_rejected(self, clause, value):
        # A non-finite value is a float, so an int knob rejects its type.
        message = ("finite" if clause.endswith("intensity")
                   else "must be an integer")
        with pytest.raises(ConfigError, match=message):
            parse_fault_spec(f"{clause}={value}")

    @pytest.mark.parametrize("name", fault_model_names())
    def test_negative_seed_rejected(self, name):
        # Rejected when the model is built, not when its stream is drawn.
        with pytest.raises(ConfigError, match="seed"):
            parse_fault_spec(f"{name}:seed=-1")

    def test_names_listing(self):
        names = fault_model_names()
        assert "default" in names
        assert "slot-jitter" in names


class TestEndToEnd:
    def test_intensity_zero_changes_nothing(self):
        payload = b"\x5a\x3c"
        baseline = IccCoresCovert(fresh_system()).transfer(payload)
        system = fresh_system()
        parse_fault_spec("default:intensity=0").attach(system)
        faulted = IccCoresCovert(system).transfer(payload)
        assert faulted.received == baseline.received
        assert faulted.ber == baseline.ber == 0.0
        assert faulted.throughput_bps == pytest.approx(
            baseline.throughput_bps)

    def test_default_suite_damages_cross_core_channel(self):
        system = fresh_system()
        parse_fault_spec("default:seed=11").attach(system)
        try:
            report = IccCoresCovert(system).transfer(
                b"\x5a\x0f\xc3\x3c\xa5\x69\x96\x0a")
        except CalibrationError:
            return  # total desync is damage too
        assert report.ber > 0.0

    def test_thread_channel_immune_to_slot_jitter(self):
        system = fresh_system()
        parse_fault_spec("slot-jitter").attach(system)
        report = IccThreadCovert(system).transfer(b"\x5a\x3c")
        assert report.ber == 0.0

    def test_fault_runs_replay_bit_identically(self):
        def run():
            system = fresh_system()
            parse_fault_spec("default:seed=11").attach(system)
            try:
                return IccCoresCovert(system).transfer(b"\xa5\x3c").received
            except CalibrationError:
                return b"<calibration-error>"

        assert run() == run()

    def test_grant_interference_and_thermal_ramp_apply_events(self):
        system = fresh_system()
        injector = parse_fault_spec(
            "grant-interference:burst_rate_per_s=2000,hold_us=40;"
            "thermal-drift:rate_c_per_s=50,step_us=100").attach(system)
        system.run_until(us_to_ns(3000.0))
        counts = injector.event_counts()
        assert counts["grant-interference"] > 0
        assert counts["thermal-drift"] > 0
        assert system.ambient_steps[-1][1] > 0.0

    def test_event_counts_sum_models_of_one_kind(self):
        system = fresh_system()
        fast = ThermalDriftRamp(rate_c_per_s=50, step_us=100)
        slow = ThermalDriftRamp(rate_c_per_s=20, step_us=200)
        injector = FaultInjector([fast, slow]).attach(system)
        IccThreadCovert(system).transfer(b"Z")
        assert (fast.events, slow.events) == (150, 75)
        assert injector.event_counts() == {"thermal-drift": 150 + 75}


class TestStateFlush:
    """The temporal-partitioning (state flush) defender fault."""

    def test_registered_but_not_in_default_suite(self):
        assert "state-flush" in fault_model_names()
        suite = parse_fault_spec("default")
        assert all(m.name != "state-flush" for m in suite.models)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            StateFlush(quantum_us=0.0)
        with pytest.raises(ConfigError):
            StateFlush(hold_us=-1.0)
        with pytest.raises(ConfigError):
            StateFlush(horizon_ms=0.0)

    def test_intensity_zero_is_a_no_op(self):
        system = System(cannon_lake_i3_8121u())
        baseline_processes = len(system._processes)
        StateFlush(intensity=0.0).attach(system, FaultInjector([]))
        assert len(system._processes) == baseline_processes

    def test_flushes_fire_on_the_quantum(self):
        injector = parse_fault_spec(
            "state-flush:quantum_us=500,hold_us=80,horizon_ms=5")
        system = System(cannon_lake_i3_8121u())
        injector.attach(system)
        system.run_until(us_to_ns(5_000.0))
        model = system.faults.models[0]
        # 5 ms horizon / (500 us quantum + 80 us hold) ~ 8 flushes.
        assert model.events >= 6
        # The flush drives the PMU through real transitions.
        assert len(system.pmu.transitions_issued) > 0

    def test_flush_params_round_trip(self):
        model = StateFlush(quantum_us=500.0, hold_us=80.0, horizon_ms=5.0)
        assert model.describe() == ("state-flush:quantum_us=500,hold_us=80,"
                                    "horizon_ms=5,intensity=1,seed=0")
        rebuilt = parse_fault_spec(model.describe()).models[0]
        assert (rebuilt.quantum_us, rebuilt.hold_us, rebuilt.horizon_ms) == (
            500.0, 80.0, 5.0)
