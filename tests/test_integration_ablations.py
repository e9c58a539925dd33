"""Integration tests and ablations of the key design decisions.

DESIGN.md lists the load-bearing mechanisms; each ablation here shows the
corresponding paper claim *disappears* when the mechanism is removed,
i.e. the reproduction's effects come from the modelled root causes and
not from coincidences.
"""

import pytest

from repro import IClass, Loop, System, SystemOptions
from repro.core import ChannelConfig, IccCoresCovert, IccThreadCovert
from repro.errors import CalibrationError
from repro.soc.config import cannon_lake_i3_8121u
from repro.units import us_to_ns


def receiver_tp_cross_core(options, sender_class, delay_ns=200.0):
    system = System(cannon_lake_i3_8121u(), options=options)
    sink = []

    def sender():
        yield system.until(us_to_ns(5.0))
        yield system.execute(system.thread_on(0, 0), Loop(sender_class, 40))

    def receiver():
        yield system.until(us_to_ns(5.0) + delay_ns)
        sink.append((yield system.execute(system.thread_on(1, 0),
                                          Loop(IClass.HEAVY_128, 40))))

    system.spawn(sender())
    system.spawn(receiver())
    system.run_until(us_to_ns(600.0))
    return sink[0].throttled_ns


class TestAblationSerializedQueue:
    """Ablation 1+2: per-core VR removes serialisation and the shared rail."""

    def test_cross_core_signal_needs_shared_rail(self):
        shared_lo = receiver_tp_cross_core(SystemOptions(), IClass.HEAVY_128)
        shared_hi = receiver_tp_cross_core(SystemOptions(), IClass.HEAVY_512)
        assert shared_hi - shared_lo > us_to_ns(5.0)

        split_lo = receiver_tp_cross_core(
            SystemOptions(per_core_vr=True, ldo_rails=False), IClass.HEAVY_128)
        split_hi = receiver_tp_cross_core(
            SystemOptions(per_core_vr=True, ldo_rails=False), IClass.HEAVY_512)
        assert abs(split_hi - split_lo) < us_to_ns(0.2)


class TestAblationSlewRate:
    """Ablation 5: LDO's fast ramp collapses the level ladder."""

    def test_ldo_rails_shrink_tp_below_decodability(self):
        slow = System(cannon_lake_i3_8121u())
        channel = IccThreadCovert(slow)
        with pytest.raises(CalibrationError):
            # Same protocol, but demand the levels sit a full 2 K cycles
            # apart on a fast-LDO machine: impossible.
            fast = System(cannon_lake_i3_8121u(),
                          options=SystemOptions(per_core_vr=True,
                                                ldo_rails=True))
            strict = ChannelConfig(min_level_gap_tsc=2000.0)
            IccThreadCovert(fast, strict).calibrate()
        # Sanity: the MBVR machine calibrates even under the strict gap.
        strict = ChannelConfig(min_level_gap_tsc=2000.0)
        IccThreadCovert(slow, strict).calibrate()
        assert channel is not None


class TestAblationHysteresis:
    """Ablation 4: transactions must respect the 650 us reset-time."""

    def test_slots_shorter_than_reset_time_cause_intersymbol_errors(self):
        # With a 200 us slot the previous symbol's guardband is still
        # granted, so a lower-level sender never triggers a transition
        # and symbols collide.
        system = System(cannon_lake_i3_8121u())
        config = ChannelConfig(slot_us=200.0, min_level_gap_tsc=0.0,
                               adaptive_slot=False)
        channel = IccThreadCovert(system, config)
        channel.calibrate()
        # Descending symbol stream: every later symbol hides under the
        # guardband of the earlier ones.
        readings = channel.run_symbols([3, 2, 1, 0])
        decoded = channel.calibrator.decode_all(readings)
        assert decoded != [3, 2, 1, 0]

    def test_slots_longer_than_reset_time_decode_cleanly(self):
        system = System(cannon_lake_i3_8121u())
        channel = IccThreadCovert(system)  # default 750 us slot
        channel.calibrate()
        readings = channel.run_symbols([3, 2, 1, 0])
        decoded = channel.calibrator.decode_all(readings)
        assert decoded == [3, 2, 1, 0]


class TestAblationTemporalProximity:
    """Cross-core exacerbation needs requests within a short window."""

    def test_far_apart_requests_do_not_queue(self):
        near = receiver_tp_cross_core(SystemOptions(), IClass.HEAVY_512,
                                      delay_ns=200.0)
        far = receiver_tp_cross_core(SystemOptions(), IClass.HEAVY_512,
                                     delay_ns=us_to_ns(200.0))
        assert near > far + us_to_ns(3.0)


class TestEndToEndScenario:
    """A realistic exfiltration: key bytes with CRC framing, across cores."""

    def test_key_exfiltration_with_crc(self):
        from repro.core import CRC8

        key = bytes([0x2b, 0x7e, 0x15, 0x16])
        framed = CRC8().append(key)
        system = System(cannon_lake_i3_8121u())
        channel = IccCoresCovert(system)
        report = channel.transfer(framed)
        assert CRC8().verify(report.received)
        assert report.received[:-1] == key

    def test_hamming_protected_transfer_under_noise(self):
        from repro.core import Hamming74
        from repro.core.ecc import deinterleave, interleave
        from repro.core.encoding import bits_to_bytes, bytes_to_bits
        from repro.isa.workload import random_phi_schedule
        from repro.soc.noise import attach_trace

        payload = b"\x9d\x42"
        code = Hamming74()
        coded_bits = code.encode(bytes_to_bits(payload))
        # Interleave at the block size so a 2-bit symbol error never
        # lands twice in one Hamming block.
        wire_bits = interleave(coded_bits, depth=code.block_bits)
        wire = bits_to_bytes(wire_bits)

        system = System(cannon_lake_i3_8121u())
        attach_trace(system, system.thread_on(1),
                     random_phi_schedule(60.0, 2000.0, seed=77))
        channel = IccThreadCovert(system)
        report = channel.transfer(wire)
        received = deinterleave(bytes_to_bits(report.received),
                                depth=code.block_bits)
        decoded = code.decode(received)
        assert bits_to_bytes(decoded) == payload
