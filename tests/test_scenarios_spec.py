"""Scenario grammar: validation, actionable errors, mapping round-trips."""

import itertools
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, ProtocolError
from repro.scenarios import (
    NoiseSpec,
    ScenarioSpec,
    TenantSpec,
    WorkloadSpec,
    build_system,
)
from repro.scenarios.spec import (
    OPTION_KEYS,
    options_from_mapping,
    options_to_mapping,
)
from repro.soc.system import SystemOptions
from repro.isa.workload import sevenzip_like_trace

# -- strategies --------------------------------------------------------------
#
# Every field of every mapping dataclass is drawn away from its default
# somewhere below, so a field the codec drops in either direction fails
# a round-trip.

options_specs = st.builds(
    SystemOptions,
    per_core_vr=st.booleans(),
    ldo_rails=st.booleans(),
    improved_throttling=st.booleans(),
    secure_mode=st.booleans(),
    turbo_license_limit=st.booleans(),
)

noise_specs = st.builds(
    NoiseSpec,
    interrupt_rate_per_s=st.floats(min_value=1.0, max_value=5000.0),
    interrupt_mean_us=st.floats(min_value=0.5, max_value=20.0),
    ctx_switch_rate_per_s=st.floats(min_value=0.0, max_value=2000.0),
    ctx_switch_mean_us=st.floats(min_value=1.0, max_value=200.0),
    horizon_ms=st.floats(min_value=1.0, max_value=100.0),
    seed=st.integers(min_value=0, max_value=2**31),
)

_cores = st.integers(min_value=2, max_value=5)
_smt_slots = st.integers(min_value=0, max_value=1)
_rates = st.floats(min_value=0.0, max_value=1000.0)

workload_specs = st.one_of(
    st.builds(
        WorkloadSpec,
        kind=st.sampled_from(("browser", "sevenzip", "ml_inference",
                              "phi_schedule")),
        core=_cores,
        smt_slot=_smt_slots,
        duration_ms=st.floats(min_value=1.0, max_value=50.0),
        seed=st.integers(min_value=0, max_value=999),
        rate_per_s=_rates,
    ),
    st.builds(
        WorkloadSpec,
        kind=st.just("replay"),
        core=_cores,
        smt_slot=_smt_slots,
        rate_per_s=_rates,
        phases=st.lists(
            st.tuples(st.sampled_from(("SCALAR_64", "HEAVY_256")),
                      st.floats(min_value=100.0, max_value=1e6)),
            min_size=1, max_size=4).map(tuple),
    ),
)


@st.composite
def tenant_specs(draw, index, smt):
    """Tenant ``index`` of a scenario: owns cores ``2*index`` (and +1)."""
    channel = draw(st.sampled_from(
        ("thread", "smt", "cores") if smt else ("thread", "cores")))
    core = 2 * index
    return TenantSpec(channel, core, core + 1 if channel == "cores" else core,
                      offset_fraction=draw(st.floats(min_value=0.0,
                                                     max_value=0.99)))


@st.composite
def scenario_specs(draw):
    """Valid scenarios: disjoint tenants + optional extras.

    ``coffee_lake`` has no SMT; ``skylake_sp`` has SMT and cores to spare.
    """
    preset = draw(st.sampled_from(("coffee_lake", "skylake_sp")))
    smt = preset == "skylake_sp"
    n_pairs = draw(st.integers(min_value=1, max_value=2))
    tenants = tuple(draw(tenant_specs(i, smt)) for i in range(n_pairs))
    background = draw(st.one_of(st.just(()),
                                st.tuples(workload_specs)))
    # Background cores 2..5 stay on-die even under the n_cores=6
    # override; pair 1 uses cores 2/3 — drop colliding workloads, and
    # second-slot workloads on the part without SMT.
    taken = {t for tenant in tenants for t in tenant.hardware_threads()}
    background = tuple(w for w in background
                      if (w.core, w.smt_slot) not in taken
                      and (smt or w.smt_slot == 0))
    return ScenarioSpec(
        name=draw(st.sampled_from(("prop_a", "prop_b", "prop_c"))),
        description="property-generated scenario",
        preset=preset,
        overrides=draw(st.one_of(
            st.just(()),
            st.just((("vid_step_mv", 10.0),)),
            st.just((("n_cores", 6), ("reset_time_us", 500.0))))),
        options=draw(options_specs),
        protocol=draw(st.one_of(
            st.just(()),
            st.just((("training_rounds", 1),)),
            st.just((("slot_us", 900.0), ("training_rounds", 2))))),
        tenants=tenants,
        noise=draw(st.one_of(st.none(), noise_specs)),
        faults=draw(st.sampled_from(
            ("", "thermal-drift", "default:intensity=0.5,seed=3"))),
        background=background,
        payload_hex=draw(st.sampled_from(("43", "4943", "deadbeef"))),
    )


# -- round-trips -------------------------------------------------------------

class TestRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(spec=scenario_specs())
    def test_mapping_round_trip_is_identity(self, spec):
        assert ScenarioSpec.from_mapping(spec.to_mapping()) == spec

    @settings(max_examples=60, deadline=None)
    @given(spec=scenario_specs())
    def test_round_trip_survives_json(self, spec):
        wire = json.loads(json.dumps(spec.to_mapping()))
        assert ScenarioSpec.from_mapping(wire) == spec

    @settings(max_examples=60, deadline=None)
    @given(spec=scenario_specs())
    def test_to_mapping_is_canonical(self, spec):
        # from_mapping(to_mapping(s)).to_mapping() is a fixed point.
        mapping = spec.to_mapping()
        assert ScenarioSpec.from_mapping(mapping).to_mapping() == mapping

    @settings(max_examples=40, deadline=None)
    @given(options=options_specs, noise=noise_specs)
    def test_component_round_trips(self, options, noise):
        assert options_from_mapping(options_to_mapping(options)) == options
        assert NoiseSpec.from_mapping(noise.to_mapping()) == noise

    @settings(max_examples=40, deadline=None)
    @given(workload=workload_specs)
    def test_workload_round_trip(self, workload):
        assert WorkloadSpec.from_mapping(workload.to_mapping()) == workload

    def test_replay_captures_a_recorded_trace(self):
        trace = sevenzip_like_trace(5.0, seed=7)
        spec = WorkloadSpec.replay(trace, core=3)
        rebuilt = spec.build_trace()
        assert rebuilt.duration_ns == trace.duration_ns
        assert [(p.iclass, p.duration_ns) for p in rebuilt] == \
               [(p.iclass, p.duration_ns) for p in trace]


# -- the digest contract: emitted keys ----------------------------------------

class TestEmittedKeys:
    """Each class's emitted key set and order, pinned.

    Run documents embed these mappings and every committed golden
    hashes them, so a key added, dropped, renamed or reordered here
    re-digests the goldens.
    """

    @pytest.mark.parametrize("mapping, keys", [
        (NoiseSpec().to_mapping(),
         ["interrupt_rate_per_s", "interrupt_mean_us",
          "ctx_switch_rate_per_s", "ctx_switch_mean_us", "horizon_ms",
          "seed"]),
        (WorkloadSpec("browser").to_mapping(),
         ["kind", "core", "smt_slot", "duration_ms", "seed", "rate_per_s",
          "phases"]),
        (TenantSpec("cores").to_mapping(),
         ["channel", "sender_core", "receiver_core", "offset_fraction"]),
        (options_to_mapping(SystemOptions()),
         ["per_core_vr", "ldo_rails", "improved_throttling",
          "secure_mode"]),
        (ScenarioSpec(name="x", description="d").to_mapping(),
         ["name", "description", "preset", "overrides", "options",
          "protocol", "tenants", "noise", "faults", "background",
          "payload_hex"]),
    ], ids=["noise", "workload", "tenant", "options", "scenario"])
    def test_default_instance_emits_the_pinned_keys(self, mapping, keys):
        assert list(mapping) == keys


# -- rejection: every error names the offending field and the fix ------------

class TestRejection:
    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="unknown scenario field"):
            ScenarioSpec.from_mapping(
                {"name": "x", "description": "d", "tenant": []})

    @pytest.mark.parametrize("key, value", [
        ("pmu", {"queue_depth": 0, "grant_policy": "serialized"}),
        ("seed", 2021),
    ], ids=["pmu", "seed"])
    def test_retired_key_is_named(self, key, value):
        # The PMU knob section and the system seed changed nothing the
        # simulator computes; a document still carrying one fails here
        # rather than being silently accepted.
        with pytest.raises(ConfigError,
                           match=f"unknown scenario field.*'{key}'"):
            ScenarioSpec.from_mapping(
                {"name": "x", "description": "d", key: value})

    def test_unknown_preset_lists_presets(self):
        with pytest.raises(ConfigError, match="cannon_lake"):
            ScenarioSpec(name="x", description="d", preset="alder_lake")

    def test_override_outside_whitelist(self):
        with pytest.raises(ConfigError, match="overridable fields"):
            ScenarioSpec(name="x", description="d",
                         overrides=(("turbo_ceilings", ()),))

    def test_n_cores_above_preset_suggests_bigger_part(self):
        with pytest.raises(ConfigError, match="skylake_sp"):
            ScenarioSpec(name="x", description="d", preset="cannon_lake",
                         overrides=(("n_cores", 16),))

    def test_non_integral_n_cores_fails_at_build_time(self):
        # Used to construct, then die with TypeError inside System().
        with pytest.raises(ConfigError, match="n_cores"):
            ScenarioSpec(name="x", description="d", preset="cannon_lake",
                         overrides=(("n_cores", 1.5),))

    def test_smt_tenant_on_no_smt_part(self):
        with pytest.raises(ConfigError, match="smt_per_core=1"):
            ScenarioSpec(name="x", description="d", preset="coffee_lake",
                         tenants=(TenantSpec("smt", 0, 0),))

    def test_tenant_pinned_off_die(self):
        with pytest.raises(ConfigError, match="only 2 cores"):
            ScenarioSpec(name="x", description="d", preset="cannon_lake",
                         tenants=(TenantSpec("cores", 0, 5),))

    def test_hardware_thread_collision_names_both_parties(self):
        with pytest.raises(ConfigError, match="collides with tenant 0"):
            ScenarioSpec(name="x", description="d", preset="coffee_lake",
                         tenants=(TenantSpec("cores", 0, 1),
                                  TenantSpec("cores", 1, 2)))

    def test_background_collision_with_tenant(self):
        with pytest.raises(ConfigError, match="collides"):
            ScenarioSpec(name="x", description="d", preset="cannon_lake",
                         tenants=(TenantSpec("cores", 0, 1),),
                         background=(WorkloadSpec("browser", core=1,
                                                  smt_slot=0),))

    def test_cores_tenant_needs_distinct_cores(self):
        with pytest.raises(ConfigError, match="distinct cores"):
            TenantSpec("cores", 1, 1)

    def test_thread_tenant_needs_one_core(self):
        with pytest.raises(ConfigError, match="both parties on one"):
            TenantSpec("thread", 0, 1)

    def test_offset_fraction_range(self):
        with pytest.raises(ConfigError, match="offset_fraction"):
            TenantSpec("cores", 0, 1, offset_fraction=1.0)

    def test_replay_without_phases(self):
        with pytest.raises(ConfigError, match="phases"):
            WorkloadSpec("replay")

    def test_phases_on_synthetic_kind(self):
        with pytest.raises(ConfigError, match="only valid for kind"):
            WorkloadSpec("browser", phases=(("SCALAR_64", 100.0),))

    def test_unknown_instruction_class_in_replay(self):
        with pytest.raises(ConfigError, match="HEAVY_256"):
            WorkloadSpec("replay", phases=(("AVX9000", 100.0),))

    def test_bad_payload_hex(self):
        with pytest.raises(ConfigError, match="payload_hex"):
            ScenarioSpec(name="x", description="d", payload_hex="zz")

    def test_empty_payload(self):
        with pytest.raises(ConfigError, match="at least one byte"):
            ScenarioSpec(name="x", description="d", payload_hex="")

    def test_bad_fault_spec_fails_at_build_time(self):
        with pytest.raises(ConfigError):
            ScenarioSpec(name="x", description="d",
                         faults="not-a-model:intensity=1")

    def test_no_tenants(self):
        with pytest.raises(ConfigError, match="at least one tenant"):
            ScenarioSpec(name="x", description="d", tenants=())

    def test_bad_protocol_field(self):
        with pytest.raises(ConfigError, match="ChannelConfig"):
            ScenarioSpec(name="x", description="d",
                         protocol=(("slot_width_us", 750),))

    @pytest.mark.parametrize("field", [
        "interrupt_rate_per_s", "interrupt_mean_us",
        "ctx_switch_rate_per_s", "ctx_switch_mean_us", "horizon_ms"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_noise_rejects_non_finite(self, field, value):
        with pytest.raises(ConfigError, match=f"noise.{field}"):
            NoiseSpec(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("rate_per_s", -1.0),
        ("rate_per_s", float("nan")),
        ("rate_per_s", float("inf")),
        ("duration_ms", float("nan")),
        ("duration_ms", float("inf")),
    ], ids=["rate-neg", "rate-nan", "rate-inf", "duration-nan",
            "duration-inf"])
    def test_workload_rejects_bad_numbers(self, field, value):
        with pytest.raises(ConfigError, match=f"workload {field}"):
            WorkloadSpec("phi_schedule", **{field: value})

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_replay_rejects_non_finite_phase(self, duration):
        with pytest.raises(ConfigError, match="replay phase durations"):
            WorkloadSpec("replay", phases=(("SCALAR_64", duration),))

    def test_bad_protocol_value_propagates(self):
        with pytest.raises(ProtocolError):
            ScenarioSpec(name="x", description="d",
                         protocol=(("slot_us", -5.0),))

    @pytest.mark.parametrize("field", [
        "training_rounds", "sender_iterations", "probe_iterations"])
    @pytest.mark.parametrize("value", [
        1.5, 2.5, float("nan"), float("inf"), True, 0, -2],
        ids=["1.5", "2.5", "nan", "inf", "bool", "zero", "negative"])
    def test_non_integral_protocol_count_fails_at_build_time(self, field,
                                                              value):
        with pytest.raises(ProtocolError, match=field):
            ScenarioSpec(name="x", description="x",
                         protocol=((field, value),))

    @pytest.mark.parametrize("extra, error, field", [
        ({"tenants": [{"channel": "cores", "sender_core": 0.9}]},
         ConfigError, "tenants[0].sender_core"),
        ({"tenants": [{"channel": "cores", "receiver_core": "1"}]},
         ConfigError, "tenants[0].receiver_core"),
        ({"noise": {"seed": 2.7}}, ConfigError, "noise.seed"),
        ({"payload_hex": 17}, ConfigError, "payload_hex"),
        ({"background": [{"kind": "browser", "core": 1.2,
                          "smt_slot": True}]},
         ConfigError, "background[0].core"),
        ({"background": [{"kind": "browser", "core": 1, "smt_slot": True}]},
         ConfigError, "background[0].smt_slot"),
        ({"overrides": {"vid_step_mv": "5"}}, ConfigError, "vid_step_mv"),
        # Protocol values are checked by ChannelConfig, like every
        # other protocol override (test_bad_protocol_value_propagates).
        ({"protocol": {"adaptive_slot": "false"}},
         ProtocolError, "adaptive_slot"),
    ], ids=["sender-core-float", "receiver-core-str", "noise-seed-float",
            "payload-int", "background-core-float", "background-slot-bool",
            "override-str", "adaptive-slot-str"])
    def test_wrong_type_is_rejected_not_coerced(self, extra, error, field):
        with pytest.raises(error, match=re.escape(field)):
            ScenarioSpec.from_mapping(
                {"name": "x", "description": "d", **extra})

    def test_float_field_takes_an_int_and_stores_a_float(self):
        noise = NoiseSpec.from_mapping({"horizon_ms": 20})
        assert noise.horizon_ms == 20.0
        assert isinstance(noise.horizon_ms, float)

    @pytest.mark.parametrize("build, message", [
        (lambda: TenantSpec("cores", 0.5, 1),
         "tenant.sender_core must be an integer, got 0.5"),
        (lambda: WorkloadSpec("replay", phases=(("SCALAR_64", "100"),)),
         "workload.phases[0][1] must be a number, got '100'"),
        (lambda: NoiseSpec(seed=True), "noise.seed must be an integer"),
        (lambda: ScenarioSpec(name="x", description="d", payload_hex=17),
         "scenario.payload_hex must be a string, got 17"),
        (lambda: ScenarioSpec(name="x", description="d",
                              tenants=({"channel": "thread"},)),
         "scenario.tenants[0] must be a TenantSpec"),
    ], ids=["tenant-core-float", "replay-duration-str", "noise-seed-bool",
            "payload-int", "tenant-mapping"])
    def test_constructor_applies_the_codec_type_rule(self, build, message):
        """A spec built in code is checked like one read from a mapping."""
        with pytest.raises(ConfigError, match=re.escape(message)):
            build()

    def test_built_spec_stores_what_its_codec_reads_back(self):
        """Ints in float fields and list spellings are normalised."""
        spec = ScenarioSpec(
            name="x", description="d",
            tenants=[TenantSpec("cores", 0, 1, offset_fraction=0)],
            background=[WorkloadSpec("replay", core=0, smt_slot=1,
                                     phases=[["SCALAR_64", 100]])],
            noise=NoiseSpec(horizon_ms=20))
        assert spec.tenants[0].offset_fraction == 0.0
        assert isinstance(spec.tenants[0].offset_fraction, float)
        assert spec.background[0].phases == (("SCALAR_64", 100.0),)
        assert repr(ScenarioSpec.from_mapping(spec.to_mapping())) \
            == repr(spec)

    def test_uppercase_name_rejected(self):
        with pytest.raises(ConfigError, match="lowercase identifier"):
            ScenarioSpec(name="Baseline", description="d")

    def test_mapping_requires_name_and_description(self):
        with pytest.raises(ConfigError, match="'name'"):
            ScenarioSpec.from_mapping({"description": "d"})
        with pytest.raises(ConfigError, match="'description'"):
            ScenarioSpec.from_mapping({"name": "x"})


class TestTurboLicenseLimitOption:
    """The defender switch added for the mitigation matrix.

    The option must round-trip like every other switch, but its
    mapping key is emitted only when set: run documents embed the
    options mapping, so an unconditionally emitted new key would
    re-digest every committed scenario golden.
    """

    def test_round_trip_both_ways(self):
        on = SystemOptions(turbo_license_limit=True)
        off = SystemOptions()
        assert options_from_mapping(options_to_mapping(on)) == on
        assert options_from_mapping(options_to_mapping(off)) == off

    def test_mapping_key_only_emitted_when_set(self):
        assert "turbo_license_limit" not in options_to_mapping(
            SystemOptions())
        assert options_to_mapping(
            SystemOptions(turbo_license_limit=True))["turbo_license_limit"]

    def test_reaches_system_options(self):
        spec = ScenarioSpec(
            name="turbo_probe", description="d", preset="cannon_lake",
            options=SystemOptions(turbo_license_limit=True),
            tenants=(TenantSpec("cores", 0, 1),))
        assert build_system(spec).options.turbo_license_limit
        assert not build_system(ScenarioSpec(
            name="plain_probe", description="d", preset="cannon_lake",
            tenants=(TenantSpec("cores", 0, 1),))).options.turbo_license_limit


class TestOptionsMapping:
    """The scenario grammar's options mapping and its digest contract."""

    @pytest.mark.parametrize("values", list(
        itertools.product((False, True), repeat=len(OPTION_KEYS))),
        ids=lambda values: "".join("1" if v else "0" for v in values))
    def test_every_combination_round_trips_with_the_pinned_keys(self,
                                                                values):
        options = SystemOptions(**dict(zip(OPTION_KEYS, values)))
        mapping = options_to_mapping(options)
        fixed = {"per_core_vr", "ldo_rails", "improved_throttling",
                 "secure_mode"}
        expected = (fixed | {"turbo_license_limit"}
                    if options.turbo_license_limit else fixed)
        assert set(mapping) == expected
        assert options_from_mapping(mapping) == options

    @pytest.mark.parametrize("value", ["false", 1, None])
    def test_non_bool_value_rejected_naming_the_key(self, value):
        with pytest.raises(ConfigError, match="options.secure_mode"):
            ScenarioSpec.from_mapping({
                "name": "x", "description": "d",
                "options": {"secure_mode": value}})

    def test_ablation_switch_is_not_a_scenario_option(self):
        with pytest.raises(ConfigError, match="disable_throttling"):
            options_from_mapping({"disable_throttling": True})
        with pytest.raises(ConfigError, match="disable_throttling"):
            ScenarioSpec(name="x", description="d",
                         options=SystemOptions(disable_throttling=True))
