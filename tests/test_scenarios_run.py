"""Scenario materialisation and the N-tenant runner and CLI."""

import dataclasses
import json

import pytest

from repro import System, cannon_lake_i3_8121u
from repro.core import IccCoresCovert, IccSMTcovert, IccThreadCovert
from repro.errors import ConfigError
from repro.isa import IClass
from repro.scenarios import (
    NoiseSpec,
    ScenarioSpec,
    TenantSpec,
    WorkloadSpec,
    all_specs,
    baseline_channel,
    build_system,
    get_spec,
    interference_spec,
    make_channel,
    run_document,
    run_scenario,
    scenario_names,
    tenant_thread_ids,
)
from repro.units import us_to_ns
from repro.verify.digest import content_digest

#: A cheap two-tenant spec reused across tests (fast protocol, 1 byte).
CHEAP_PAIRS = ScenarioSpec(
    name="cheap_pairs", description="two pairs for tests",
    preset="coffee_lake",
    protocol=(("training_rounds", 1),),
    tenants=(TenantSpec("cores", 0, 1),
             TenantSpec("cores", 2, 3, offset_fraction=0.5)),
    payload_hex="43",
)


class TestRegistry:
    def test_names_and_specs_align(self):
        names = scenario_names()
        assert len(names) >= 10
        assert [s.name for s in all_specs()] == names

    def test_get_spec_typo_lists_names(self):
        with pytest.raises(ConfigError, match="baseline_thread"):
            get_spec("baseline_threads")

    def test_interference_spec_tiles_offsets(self):
        spec = interference_spec(4)
        offsets = [t.offset_fraction for t in spec.tenants]
        assert offsets == [0.0, 0.25, 0.5, 0.75]
        assert all(t.channel == "cores" for t in spec.tenants)

    def test_registered_specs_are_mapping_stable(self):
        for spec in all_specs():
            assert ScenarioSpec.from_mapping(spec.to_mapping()) == spec


class TestBuildSystem:
    def test_overrides_reach_the_processor(self):
        spec = ScenarioSpec(
            name="ov", description="d", preset="coffee_lake",
            overrides=(("n_cores", 4), ("vid_step_mv", 10.0)),
            tenants=(TenantSpec("cores", 0, 1),))
        system = build_system(spec)
        assert system.config.n_cores == 4
        assert system.config.vid_step_mv == 10.0

    def test_faults_attached(self):
        spec = ScenarioSpec(
            name="flt", description="d",
            faults="rail-jitter:sigma_mv=1.0,seed=5",
            tenants=(TenantSpec("thread", 0, 0),))
        system = build_system(spec)
        assert system.faults is not None

    def test_no_faults_by_default(self):
        assert build_system(CHEAP_PAIRS).faults is None

    def test_tenant_thread_ids_in_tenant_order(self):
        system = build_system(CHEAP_PAIRS)
        ids = tenant_thread_ids(CHEAP_PAIRS, system)
        # Two cores tenants -> two hardware threads each, all distinct.
        assert len(ids) == 4
        assert len(set(ids)) == 4

    def test_background_replay_respects_vector_cap(self):
        # A 512-bit replay phase is valid data, and build_trace is
        # verbatim for replay; the synthetic kinds cap at the part's
        # width instead.
        workload = WorkloadSpec("power_virus", core=2, duration_ms=2.0)
        trace = workload.build_trace(max_vector_bits=256)
        assert all(p.iclass.width_bits <= 256 for p in trace)


class TestBaselineChannel:
    @pytest.mark.parametrize("kind, cls", [
        ("thread", IccThreadCovert),
        ("smt", IccSMTcovert),
        ("cores", IccCoresCovert),
    ])
    def test_equals_the_default_channel_on_cannon_lake(self, kind, cls):
        channel = baseline_channel(kind)
        assert type(channel) is cls
        by_hand = cls(System(cannon_lake_i3_8121u()))
        assert (channel.transfer(b"\x5a").fingerprint()
                == by_hand.transfer(b"\x5a").fingerprint())

    def test_changes_reach_the_spec(self):
        channel = baseline_channel("thread", faults="rail-jitter:seed=5")
        assert channel.system.faults is not None
        with pytest.raises(ConfigError, match="baseline_thread"):
            baseline_channel("threads")


class TestRunScenario:
    def test_single_pair_baseline_is_clean(self):
        run = run_scenario("baseline_thread")
        tenant = run.tenants[0]
        assert tenant.feasible and tenant.ber == 0.0
        assert tenant.symbols_received == tenant.symbols_sent
        assert run.mean_ber == 0.0
        assert run.aggregate_goodput_bps > 0

    def test_two_tenants_share_one_slot_clock(self):
        run = run_scenario(CHEAP_PAIRS)
        assert len(run.tenants) == 2
        assert all(t.feasible for t in run.tenants)
        assert run.slot_ns > 0
        assert run.aggregate_goodput_bps > max(
            t.goodput_bps for t in run.tenants)

    def test_infeasible_topology_is_a_result_not_an_error(self):
        run = run_scenario("ldo_cores")
        tenant = run.tenants[0]
        assert not tenant.feasible
        assert tenant.ber == 1.0
        assert tenant.bit_errors == tenant.bits
        assert run.aggregate_goodput_bps == 0.0

    def test_accepts_spec_or_name(self):
        by_name = run_document("baseline_thread")
        by_spec = run_document(get_spec("baseline_thread"))
        assert content_digest(by_name) == content_digest(by_spec)

    def test_document_is_json_round_trippable(self):
        document = run_document(CHEAP_PAIRS)
        wire = json.loads(json.dumps(document))
        assert wire["spec"]["name"] == "cheap_pairs"
        assert len(wire["tenants"]) == 2
        assert wire["mean_ber"] == document["mean_ber"]

    def test_every_registered_scenario_is_digest_stable(self):
        # Two fresh runs of each registered scenario must produce the
        # same content digest — the property the goldens rely on.
        for name in scenario_names():
            first = content_digest(run_document(name))
            second = content_digest(run_document(name))
            assert first == second, f"{name} is not deterministic"


class TestInterferenceSweep:
    def test_per_tenant_ladder_shape(self):
        solo, pair = (run_scenario(interference_spec(n)) for n in (1, 2))
        assert len(solo.tenants) == 1
        assert len(pair.tenants) == 2
        assert [t.index for t in pair.tenants] == [0, 1]
        assert all(t.capacity_bps >= 0.0 for t in pair.tenants)

    def test_contention_is_visible_at_scale(self):
        solo, crowded = (run_scenario(interference_spec(n)) for n in (1, 4))
        assert solo.mean_ber <= crowded.mean_ber
        assert min(t.capacity_bps for t in crowded.tenants) < max(
            t.capacity_bps for t in solo.tenants) + 1e-9


class TestSlotJitter:
    @pytest.mark.parametrize("slot_jitter_us", [0.0, 40.0])
    def test_single_tenant_matches_channel_transfer(self, slot_jitter_us):
        # Regression: the payload ran on an unjittered, unpadded
        # schedule while calibration used the channel's jittered one.
        base = get_spec("baseline_thread")
        spec = dataclasses.replace(base, protocol=base.protocol + (
            ("slot_jitter_us", slot_jitter_us),))
        run = run_scenario(spec)
        channel = make_channel(build_system(spec), spec.tenants[0], spec)
        report = channel.transfer(spec.payload)
        assert run.slot_ns == channel.slot_ns + us_to_ns(slot_jitter_us)
        assert list(run.tenants[0].measurements_tsc) == report.measurements_tsc


class TestEntryPoints:
    def test_scenarios_cli_list_show_run(self, capsys):
        from repro.scenarios.__main__ import main
        assert main(["list"]) == 0
        assert "baseline_thread" in capsys.readouterr().out
        assert main(["show", "baseline_cores"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["name"] == "baseline_cores"
        assert main(["run", "baseline_thread"]) == 0
        assert "BER=0.000" in capsys.readouterr().out
        assert main(["show", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_demo_cli_scenario_flag(self, capsys):
        from repro.__main__ import main
        assert main(["--scenario", "baseline_thread"]) == 0
        out = capsys.readouterr().out
        assert "scenario: baseline_thread" in out
        assert "mean BER" in out


class TestScenarioPhysics:
    def test_noise_and_background_change_the_run(self):
        quiet = ScenarioSpec(
            name="quiet", description="d", preset="cannon_lake",
            tenants=(TenantSpec("cores", 0, 1),), payload_hex="43")
        noisy = ScenarioSpec(
            name="noisy", description="d", preset="cannon_lake",
            tenants=(TenantSpec("cores", 0, 1),), payload_hex="43",
            noise=NoiseSpec(horizon_ms=40.0),
            background=(WorkloadSpec("sevenzip", core=0, smt_slot=1,
                                     duration_ms=40.0),))
        assert content_digest(run_document(quiet)) != \
            content_digest(run_document(noisy))

    def test_secure_mode_defeats_the_channel(self):
        run = run_scenario("secure_mode")
        assert not run.tenants[0].feasible
        assert sum(run.transitions_issued) == 0

    def test_trace_replay_background_executes(self):
        spec = get_spec("trace_replay")
        workload = spec.background[0]
        assert workload.kind == "replay"
        trace = workload.build_trace()
        assert trace.duration_ns > 0
        assert any(p.iclass is IClass.HEAVY_256 for p in trace)
        run = run_scenario(spec)
        assert run.tenants[0].feasible


class TestMultiPairInterference:
    """Two cross-core pairs on one 8-core part contend for the rail."""

    @staticmethod
    def _bers(*tenants):
        spec = ScenarioSpec(
            name="two_pairs", description="cross-core pairs on one rail",
            preset="coffee_lake", tenants=tenants,
            payload_hex="5a3cc30f")
        return [t.ber for t in run_scenario(spec).tenants]

    def test_aligned_pairs_jam_offset_pairs_coexist(self):
        solo = self._bers(TenantSpec("cores", 0, 1))
        aligned = self._bers(TenantSpec("cores", 0, 1),
                             TenantSpec("cores", 4, 5))
        offset = self._bers(TenantSpec("cores", 0, 1),
                            TenantSpec("cores", 4, 5, offset_fraction=0.5))
        assert solo == [0.0]
        assert min(aligned) > 0.2
        assert max(offset) < 0.05
