"""Per-core local PMU: hysteresis window and gate wiring."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.isa import IClass
from repro.pdn.powergate import haswell_gate, skylake_gate
from repro.pmu import LocalPMU
from repro.units import us_to_ns


def make_local(reset_us=650.0, gates="skylake"):
    factory = skylake_gate if gates == "skylake" else haswell_gate
    return LocalPMU(core_id=0, reset_time_ns=us_to_ns(reset_us),
                    avx256_gate=factory("g256"), avx512_gate=factory("g512"))


class TestRequirement:
    def test_fresh_core_needs_scalar_only(self):
        local = make_local()
        assert local.requirement(0.0) == IClass.SCALAR_64

    def test_recent_phi_raises_requirement(self):
        local = make_local()
        local.note_execute(IClass.HEAVY_256, 1000.0)
        assert local.requirement(2000.0) == IClass.HEAVY_256

    def test_requirement_is_max_of_recent_classes(self):
        local = make_local()
        local.note_execute(IClass.HEAVY_512, 1000.0)
        local.note_execute(IClass.HEAVY_128, 2000.0)
        assert local.requirement(3000.0) == IClass.HEAVY_512

    def test_requirement_decays_after_reset_time(self):
        # The 650 us hysteresis of Section 4.1.2.
        local = make_local(reset_us=650.0)
        local.note_execute(IClass.HEAVY_512, 0.0)
        assert local.requirement(us_to_ns(600.0)) == IClass.HEAVY_512
        assert local.requirement(us_to_ns(651.0)) == IClass.SCALAR_64

    def test_staged_decay_through_levels(self):
        local = make_local(reset_us=650.0)
        local.note_execute(IClass.HEAVY_512, 0.0)
        local.note_execute(IClass.HEAVY_128, us_to_ns(300.0))
        # After 651 us the 512 window expired but the 128 one has not.
        assert local.requirement(us_to_ns(700.0)) == IClass.HEAVY_128
        assert local.requirement(us_to_ns(951.0)) == IClass.SCALAR_64

    def test_note_execute_keeps_latest_time(self):
        local = make_local()
        local.note_execute(IClass.HEAVY_256, 5000.0)
        local.note_execute(IClass.HEAVY_256, 1000.0)  # stale, ignored
        assert local.requirement(5000.0 + us_to_ns(600.0)) == IClass.HEAVY_256


class TestExpiry:
    def test_no_expiry_when_scalar_only(self):
        local = make_local()
        local.note_execute(IClass.SCALAR_64, 0.0)
        assert local.next_expiry_ns(100.0) is None

    def test_expiry_matches_reset_time(self):
        local = make_local(reset_us=650.0)
        local.note_execute(IClass.HEAVY_256, 1000.0)
        assert local.next_expiry_ns(2000.0) == pytest.approx(
            1000.0 + us_to_ns(650.0))

    def test_expiry_is_current_requirement_class(self):
        local = make_local(reset_us=650.0)
        local.note_execute(IClass.HEAVY_512, 0.0)
        local.note_execute(IClass.HEAVY_128, us_to_ns(100.0))
        assert local.next_expiry_ns(us_to_ns(200.0)) == pytest.approx(
            us_to_ns(650.0))

    def test_lower_class_expiring_first_is_not_the_expiry(self):
        # HEAVY_128 leaves the window at 650 us, but the requirement
        # stays HEAVY_512 until that class leaves at 750 us.
        local = make_local(reset_us=650.0)
        local.note_execute(IClass.HEAVY_128, 0.0)
        local.note_execute(IClass.HEAVY_512, us_to_ns(100.0))
        assert local.next_expiry_ns(us_to_ns(200.0)) == pytest.approx(
            us_to_ns(750.0))


class TestWindowProperty:
    """The per-class window against a brute-force scan of every execute."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from(list(IClass)),
                           st.floats(0.0, 2_000_000.0)), max_size=12),
        st.floats(0.0, 3_000_000.0),
        st.sampled_from([1.0, 650.0, 1_000.0]),
    )
    def test_requirement_and_expiry_match_brute_force(self, executes,
                                                      now, reset_us):
        local = make_local(reset_us=reset_us)
        for iclass, t in executes:
            local.note_execute(iclass, t)
        reset_ns = us_to_ns(reset_us)
        last = {}
        for iclass, t in executes:
            last[iclass] = max(last.get(iclass, t), t)
        inside = [c for c, t in last.items() if t > now - reset_ns]
        expected = max(inside, default=IClass.SCALAR_64)
        assert local.requirement(now) == expected
        if expected == IClass.SCALAR_64:
            assert local.next_expiry_ns(now) is None
        else:
            assert local.next_expiry_ns(now) == last[expected] + reset_ns


class TestGates:
    def test_scalar_pays_no_wake(self):
        local = make_local()
        assert local.gate_wake_latency(IClass.SCALAR_64, 0.0) == 0.0

    def test_avx256_pays_one_gate(self):
        local = make_local()
        assert local.gate_wake_latency(IClass.HEAVY_256, 0.0) == pytest.approx(12.0)

    def test_avx512_pays_both_gates(self):
        local = make_local()
        assert local.gate_wake_latency(IClass.HEAVY_512, 0.0) == pytest.approx(24.0)

    def test_second_access_free(self):
        local = make_local()
        local.gate_wake_latency(IClass.HEAVY_256, 0.0)
        assert local.gate_wake_latency(IClass.HEAVY_256, 100.0) == 0.0

    def test_haswell_gates_never_charge(self):
        local = make_local(gates="haswell")
        assert local.gate_wake_latency(IClass.HEAVY_256, 0.0) == 0.0

    def test_rejects_nonpositive_reset_time(self):
        with pytest.raises(ConfigError):
            LocalPMU(0, 0.0, skylake_gate(), skylake_gate())
