"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import Calibrator, Hamming74, RepetitionCode
from repro.core.encoding import (
    bits_to_bytes,
    bits_to_symbols,
    bytes_to_bits,
    bytes_to_symbols,
    symbols_to_bits,
    symbols_to_bytes,
)
from repro.isa import IClass
from repro.measure import StepTrace
from repro.pdn import GuardbandModel, LoadLine
from repro.pdn.regulator import VoltageRegulator, mbvr_spec
from repro.soc import Engine

bits_lists = st.lists(st.integers(0, 1), min_size=4, max_size=64).filter(
    lambda b: len(b) % 4 == 0)


class TestEncodingProperties:
    @given(st.binary(min_size=1, max_size=64))
    def test_bytes_bits_roundtrip(self, data):
        assert bits_to_bytes(bytes_to_bits(data)) == data

    @given(st.binary(min_size=1, max_size=64))
    def test_bytes_symbols_roundtrip(self, data):
        assert symbols_to_bytes(bytes_to_symbols(data)) == data

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=64))
    def test_symbols_bits_roundtrip(self, symbols):
        assert bits_to_symbols(symbols_to_bits(symbols)) == symbols

    @given(st.binary(min_size=1, max_size=32))
    def test_symbol_count_is_four_per_byte(self, data):
        assert len(bytes_to_symbols(data)) == 4 * len(data)


class TestEccProperties:
    @given(bits_lists)
    def test_hamming_roundtrip_clean(self, bits):
        code = Hamming74()
        assert code.decode(code.encode(bits)) == bits

    @given(bits_lists, st.data())
    def test_hamming_corrects_one_error_per_block(self, bits, data):
        code = Hamming74()
        coded = code.encode(bits)
        n_blocks = len(coded) // code.block_bits
        corrupted = list(coded)
        for block in range(n_blocks):
            flip = data.draw(st.integers(0, code.block_bits - 1))
            corrupted[block * code.block_bits + flip] ^= 1
        assert code.decode(corrupted) == bits

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=32),
           st.sampled_from([3, 5, 7]))
    def test_repetition_roundtrip(self, bits, n):
        code = RepetitionCode(n)
        assert code.decode(code.encode(bits)) == bits

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=16), st.data())
    def test_repetition_corrects_minority_errors(self, bits, data):
        code = RepetitionCode(5)
        coded = code.encode(bits)
        corrupted = list(coded)
        for i in range(len(bits)):
            flips = data.draw(st.sets(st.integers(0, 4), max_size=2))
            for f in flips:
                corrupted[i * 5 + f] ^= 1
        assert code.decode(corrupted) == bits


class TestCalibratorProperties:
    @given(st.lists(st.floats(0.0, 1e6), min_size=2, max_size=4, unique=True))
    def test_decode_picks_nearest_center(self, centers):
        centers = sorted(centers)
        if min(b - a for a, b in zip(centers, centers[1:])) < 1.0:
            return  # degenerate clusters
        training = [(i, c) for i, c in enumerate(centers)]
        cal = Calibrator(training)
        for i, center in enumerate(centers):
            assert cal.decode(center) == i

    @given(st.lists(st.floats(0.0, 1e6), min_size=2, max_size=4, unique=True))
    def test_training_points_decode_to_their_label(self, centers):
        centers = sorted(centers)
        if min(b - a for a, b in zip(centers, centers[1:])) < 1.0:
            return
        cal = Calibrator([(i, c) for i, c in enumerate(centers)])
        # Thresholds are strictly between adjacent centers.
        for threshold, (a, b) in zip(cal.thresholds,
                                     zip(centers, centers[1:])):
            assert a < threshold < b


class TestGuardbandProperties:
    @given(st.floats(0.5, 1.3), st.floats(0.5, 5.0),
           st.sampled_from(list(IClass)))
    def test_delta_v_nonnegative(self, vcc, freq, iclass):
        model = GuardbandModel(LoadLine(0.0018))
        assert model.delta_v(iclass, vcc, freq) >= 0.0

    @given(st.floats(0.5, 1.3), st.floats(0.5, 5.0),
           st.lists(st.sampled_from(list(IClass)), max_size=8))
    def test_target_at_least_baseline(self, vcc, freq, classes):
        model = GuardbandModel(LoadLine(0.0018))
        assert model.target_vcc(vcc, classes, freq) >= vcc

    @given(st.floats(0.5, 1.3), st.floats(0.5, 5.0),
           st.lists(st.sampled_from(list(IClass)), min_size=1, max_size=4))
    def test_adding_a_core_never_lowers_target(self, vcc, freq, classes):
        model = GuardbandModel(LoadLine(0.0018))
        smaller = model.target_vcc(vcc, classes[:-1], freq)
        larger = model.target_vcc(vcc, classes, freq)
        assert larger >= smaller


class TestEngineProperties:
    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40))
    def test_events_always_run_in_nondecreasing_time(self, delays):
        engine = Engine()
        fired = []
        for delay in delays:
            engine.schedule(delay, lambda: fired.append(engine.now))
        engine.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


class TestStepTraceProperties:
    @given(st.lists(st.tuples(st.floats(0.0, 1e6), st.integers(-5, 5)),
                    min_size=1, max_size=40))
    def test_value_at_returns_last_record_before_query(self, points):
        points = sorted(points, key=lambda p: p[0])
        trace = StepTrace("p")
        for t, v in points:
            trace.record(t, v)
        # Query just after every breakpoint: must see that record (or a
        # later same-time overwrite).
        for t, _ in points:
            applicable = [v for (pt, v) in points if pt <= t + 0.5]
            assert trace.value_at(t + 0.5) == applicable[-1]


class TestRegulatorProperties:
    @given(st.lists(st.floats(0.6, 1.1), min_size=1, max_size=10))
    def test_sequential_commands_reach_quantized_targets(self, targets):
        spec = mbvr_spec(vcc_max=1.2, icc_max=50.0)
        vr = VoltageRegulator(spec, 0.8)
        now = 0.0
        for target in targets:
            settle = vr.command(now, target)
            now = settle + 1.0
            expected = min(spec.quantize_vid(target), spec.vcc_max)
            assert abs(vr.voltage_at(now) - expected) < 1e-9

    @given(st.floats(0.6, 1.1), st.floats(0.6, 1.1))
    def test_voltage_bounded_by_endpoints_during_ramp(self, start, target):
        spec = mbvr_spec(vcc_max=1.2, icc_max=50.0)
        vr = VoltageRegulator(spec, start)
        settle = vr.command(0.0, target)
        lo = min(start, vr.settled_voltage()) - 1e-9
        hi = max(start, vr.settled_voltage()) + 1e-9
        for frac in np.linspace(0.0, 1.0, 7):
            v = vr.voltage_at(frac * settle)
            assert lo <= v <= hi


class TestInterleaverProperties:
    @given(st.lists(st.integers(0, 1), min_size=8, max_size=64).filter(
        lambda b: len(b) % 8 == 0))
    def test_interleave_roundtrip(self, bits):
        from repro.core.ecc import deinterleave, interleave

        assert deinterleave(interleave(bits, 8), 8) == bits

    @given(st.lists(st.integers(0, 1), min_size=8, max_size=64).filter(
        lambda b: len(b) % 8 == 0))
    def test_interleave_is_a_permutation(self, bits):
        from repro.core.ecc import interleave

        assert sorted(interleave(bits, 8)) == sorted(bits)
