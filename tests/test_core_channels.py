"""End-to-end covert channel tests."""

import pytest

from repro import System, SystemOptions
from repro.core import (
    ChannelConfig,
    IccCoresCovert,
    IccSMTcovert,
    IccThreadCovert,
)
from repro.errors import ConfigError, ProtocolError
from repro.soc.config import (
    cannon_lake_i3_8121u,
    coffee_lake_i7_9700k,
    haswell_i7_4770k,
)


def make_channel(cls, config=None, **kwargs):
    system = System(config or cannon_lake_i3_8121u())
    return cls(system, **kwargs)


PAYLOAD = b"\x00\x55\xaa\xff4Vx"


class TestIccThreadCovert:
    def test_transfers_payload_error_free(self):
        channel = make_channel(IccThreadCovert)
        report = channel.transfer(PAYLOAD)
        assert report.received == PAYLOAD
        assert report.ber == 0.0

    def test_throughput_in_paper_ballpark(self):
        # Paper: ~2.9 kbps; our slot is 750 us so ~2.5 kbps.
        channel = make_channel(IccThreadCovert)
        report = channel.transfer(PAYLOAD)
        assert 2000.0 < report.throughput_bps < 3000.0

    def test_works_on_parts_without_avx512(self):
        for config in (coffee_lake_i7_9700k(), haswell_i7_4770k()):
            system = System(config, governor_freq_ghz=config.base_freq_ghz)
            channel = IccThreadCovert(system)
            report = channel.transfer(b"\x2a\x91")
            assert report.received == b"\x2a\x91"

    def test_probe_direction_inverted(self):
        # Higher sender level leaves less ramp for the probe, so the L4
        # cluster center must be the smallest.
        channel = make_channel(IccThreadCovert)
        calibrator = channel.calibrate()
        centers = {s: st.center for s, st in calibrator.stats.items()}
        assert centers[3] < centers[0]

    def test_sequential_transfers_on_one_system(self):
        channel = make_channel(IccThreadCovert)
        first = channel.transfer(b"\x11\x22")
        second = channel.transfer(b"\x33\x44")
        assert first.received == b"\x11\x22"
        assert second.received == b"\x33\x44"
        assert second.start_ns >= first.end_ns

    def test_calibration_reused_across_transfers(self):
        channel = make_channel(IccThreadCovert)
        first = channel.transfer(b"\x11")
        second = channel.transfer(b"\x22")
        assert first.retraining
        assert not second.retraining

    def test_empty_payload_rejected(self):
        channel = make_channel(IccThreadCovert)
        with pytest.raises(ProtocolError):
            channel.transfer(b"")

    def test_unknown_core_rejected(self):
        with pytest.raises(ConfigError):
            make_channel(IccThreadCovert, core=9)

    def test_report_accounting(self):
        channel = make_channel(IccThreadCovert)
        report = channel.transfer(b"\xff")
        assert report.bits == 8
        assert len(report.symbols_sent) == 4
        assert len(report.measurements_tsc) == 4
        assert report.goodput_bps == pytest.approx(report.throughput_bps)


class TestIccSMTcovert:
    def test_transfers_payload_error_free(self):
        channel = make_channel(IccSMTcovert)
        report = channel.transfer(PAYLOAD)
        assert report.received == PAYLOAD
        assert report.ber == 0.0

    def test_probe_direction_normal(self):
        # Higher sender level -> longer co-throttling of the sibling.
        channel = make_channel(IccSMTcovert)
        calibrator = channel.calibrate()
        centers = {s: st.center for s, st in calibrator.stats.items()}
        assert centers[3] > centers[0]

    def test_rejected_on_parts_without_smt(self):
        # The paper evaluates IccSMTcovert only on Cannon Lake because
        # the i7-9700K has no SMT.
        system = System(coffee_lake_i7_9700k())
        with pytest.raises(ConfigError):
            IccSMTcovert(system)

    def test_works_on_haswell_smt(self):
        system = System(haswell_i7_4770k())
        channel = IccSMTcovert(system)
        report = channel.transfer(b"\x5c")
        assert report.received == b"\x5c"

    def test_sender_and_receiver_share_a_core(self):
        channel = make_channel(IccSMTcovert)
        system = channel.system
        assert (system.threads[channel.sender_thread].core_id
                == system.threads[channel.receiver_thread].core_id)


class TestIccCoresCovert:
    def test_transfers_payload_error_free(self):
        channel = make_channel(IccCoresCovert)
        report = channel.transfer(PAYLOAD)
        assert report.received == PAYLOAD
        assert report.ber == 0.0

    def test_same_core_rejected(self):
        system = System(cannon_lake_i3_8121u())
        with pytest.raises(ConfigError):
            IccCoresCovert(system, sender_core=0, receiver_core=0)

    def test_works_across_coffee_lake_cores(self):
        system = System(coffee_lake_i7_9700k())
        channel = IccCoresCovert(system, sender_core=2, receiver_core=5)
        report = channel.transfer(b"\x3d")
        assert report.received == b"\x3d"

    def test_probe_direction_normal(self):
        channel = make_channel(IccCoresCovert)
        calibrator = channel.calibrate()
        centers = {s: st.center for s, st in calibrator.stats.items()}
        assert centers[3] > centers[0]


class TestTransferReportAccounting:
    """BER arithmetic of :class:`TransferReport` (regression).

    A receiver that loses slots used to report a *lower* BER than one
    that decoded everything wrong, because ``zip`` silently dropped the
    missing tail.  Missing or surplus symbols now count as fully errored.
    """

    def _report(self, sent, received):
        from repro.core import ChannelLocation, TransferReport

        return TransferReport(
            sent=b"", received=b"", symbols_sent=sent,
            symbols_received=received, measurements_tsc=[],
            start_ns=0.0, end_ns=1.0,
            location=ChannelLocation.SAME_THREAD)

    def test_equal_length_counts_symbol_xor_bits(self):
        report = self._report([0b00, 0b01, 0b11], [0b00, 0b11, 0b00])
        assert report.bit_errors == 3  # 0 + 1 + 2 wrong bits
        assert report.ber == pytest.approx(3 / 6)

    def test_missing_tail_counts_as_fully_errored(self):
        report = self._report([1, 2, 3, 0], [1, 2])
        assert report.bit_errors == 4  # two lost symbols x 2 bits
        assert report.ber == pytest.approx(4 / 8)

    def test_surplus_symbols_count_too(self):
        report = self._report([1, 2], [1, 2, 3])
        assert report.bit_errors == 2

    def test_everything_lost_is_total_loss(self):
        report = self._report([0, 1, 2, 3], [])
        assert report.ber == 1.0


class TestChannelConfig:
    def test_bad_slot_rejected(self):
        with pytest.raises(ProtocolError):
            ChannelConfig(slot_us=0.0)

    @pytest.mark.parametrize("slot_us", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_slot_rejected(self, slot_us):
        with pytest.raises(ProtocolError, match="slot_us must be"):
            ChannelConfig(slot_us=slot_us)

    @pytest.mark.parametrize("slot_jitter_us",
                             [float("nan"), float("inf"), -1.0])
    def test_bad_slot_jitter_rejected(self, slot_jitter_us):
        with pytest.raises(ProtocolError, match="slot_jitter_us must be"):
            ChannelConfig(slot_jitter_us=slot_jitter_us)

    def test_negative_jitter_seed_rejected(self):
        with pytest.raises(ProtocolError, match="jitter_seed"):
            ChannelConfig(slot_jitter_us=100.0, jitter_seed=-1)

    @pytest.mark.parametrize("field", ["jitter_seed", "block_instructions"])
    @pytest.mark.parametrize("value", [1.5, float("nan"), True],
                             ids=["1.5", "nan", "bool"])
    def test_non_integral_count_rejected(self, field, value):
        with pytest.raises(ProtocolError, match=field):
            ChannelConfig(slot_jitter_us=100.0, **{field: value})

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_non_bool_adaptive_slot_rejected(self, value):
        # A truthy "false" string must not switch the adaptive slot on.
        with pytest.raises(ProtocolError, match="adaptive_slot"):
            ChannelConfig(adaptive_slot=value)

    def test_bad_iterations_rejected(self):
        with pytest.raises(ProtocolError):
            ChannelConfig(sender_iterations=0)

    @pytest.mark.parametrize("field, value", [
        ("block_instructions", 0),
        ("block_instructions", -300),
        ("cross_core_delay_ns", float("nan")),
        ("cross_core_delay_ns", float("inf")),
        ("cross_core_delay_ns", -1.0),
        ("min_level_gap_tsc", float("nan")),
        ("min_level_gap_tsc", float("inf")),
        ("min_level_gap_tsc", -1.0),
        # A bool is not a slot length; a string used to die with a bare
        # TypeError from the comparison.
        ("slot_us", True),
        ("cross_core_delay_ns", True),
        ("slot_us", "750"),
    ])
    def test_bad_numeric_knob_rejected_at_construction(self, field, value):
        with pytest.raises(ProtocolError, match=field):
            ChannelConfig(**{field: value})

    def test_too_short_slot_detected_at_runtime(self):
        # With the adaptive slot disabled, a slot shorter than the send
        # window cannot produce measurements for every transaction.
        system = System(cannon_lake_i3_8121u())
        channel = IccThreadCovert(
            system, ChannelConfig(slot_us=20.0, adaptive_slot=False))
        with pytest.raises(ProtocolError):
            channel.transfer(b"\x12\x34")

    def test_adaptive_slot_grows_for_slow_parts(self):
        # A 20 us request is silently grown past the reset-time when the
        # adaptive slot is on (the default).
        system = System(cannon_lake_i3_8121u())
        channel = IccThreadCovert(system, ChannelConfig(slot_us=20.0))
        assert channel.slot_ns > 650_000.0
        report = channel.transfer(b"\x12\x34")
        assert report.received == b"\x12\x34"


class TestSymbolLoops:
    def test_sender_loop_class_matches_symbol(self):
        channel = make_channel(IccThreadCovert)
        for symbol in range(4):
            assert channel.sender_loop(symbol).iclass == channel.symbol_class(symbol)

    def test_bad_symbol_rejected(self):
        channel = make_channel(IccThreadCovert)
        with pytest.raises(ProtocolError):
            channel.sender_loop(4)

    def test_run_symbols_rejects_empty(self):
        channel = make_channel(IccThreadCovert)
        with pytest.raises(ProtocolError):
            channel.run_symbols([])
