"""Reliable session transport over the covert channels."""

from types import SimpleNamespace

import pytest

from repro import System
from repro.core import ChannelLocation, IccCoresCovert, IccSMTcovert, IccThreadCovert
from repro.core.channel import TransferReport
from repro.core.levels import ROBUST_SYMBOLS
from repro.core.encoding import bytes_to_symbols
from repro.core.session import (
    AdaptiveConfig,
    CovertSession,
    FecScheme,
    SessionConfig,
    SessionReport,
)
from repro.errors import ProtocolError
from repro.isa.workload import random_phi_schedule
from repro.soc.config import cannon_lake_i3_8121u
from repro.soc.noise import attach_trace


def clean_session(channel_cls=IccThreadCovert, **kwargs):
    system = System(cannon_lake_i3_8121u())
    return CovertSession(channel_cls(system), SessionConfig(**kwargs))


class TestSessionConfig:
    def test_code_rates(self):
        assert SessionConfig(fec=FecScheme.NONE).code_rate == 1.0
        assert SessionConfig(fec=FecScheme.HAMMING).code_rate == 0.5
        assert SessionConfig(fec=FecScheme.REPETITION3).code_rate == pytest.approx(1 / 3)

    def test_validation(self):
        with pytest.raises(ProtocolError):
            SessionConfig(frame_bytes=0)
        with pytest.raises(ProtocolError):
            SessionConfig(frame_bytes=300)
        with pytest.raises(ProtocolError):
            SessionConfig(max_retries=-1)

    @pytest.mark.parametrize("max_retries", [
        1.5, float("nan"), float("inf"), True, -1],
        ids=["1.5", "nan", "inf", "bool", "negative"])
    def test_non_integral_max_retries_rejected(self, max_retries):
        with pytest.raises(ProtocolError, match="max_retries"):
            SessionConfig(max_retries=max_retries)

    @pytest.mark.parametrize("field, value", [
        ("frame_bytes", 1.5),
        ("quiet_patience", float("nan")),
        # A truthy "no" must not switch quiet-period sensing on.
        ("wait_for_quiet", "no"),
    ])
    def test_non_integral_counts_rejected(self, field, value):
        with pytest.raises(ProtocolError, match=field):
            SessionConfig(**{field: value})


class TestCleanTransport:
    @pytest.mark.parametrize("fec", list(FecScheme))
    def test_roundtrip_every_fec(self, fec):
        session = clean_session(fec=fec)
        payload = bytes(range(20))
        report = session.send(payload)
        assert report.ok
        assert report.delivered == payload
        assert report.retransmissions == 0

    def test_multi_frame_payload(self):
        session = clean_session(frame_bytes=4)
        payload = bytes(range(15))  # 4 frames, last one short
        report = session.send(payload)
        assert report.ok
        assert len(report.frames) == 4

    def test_single_byte_payload(self):
        report = clean_session().send(b"\x42")
        assert report.ok

    def test_works_over_smt_and_cores_channels(self):
        for channel_cls in (IccSMTcovert, IccCoresCovert):
            report = clean_session(channel_cls).send(b"\x13\x57")
            assert report.ok, channel_cls.__name__

    def test_goodput_positive_when_ok(self):
        report = clean_session().send(bytes(8))
        assert report.goodput_bps > 0

    def test_empty_payload_rejected(self):
        with pytest.raises(ProtocolError):
            clean_session().send(b"")


class TestNoisyTransport:
    def _noisy_session(self, fec, rate=800.0, seed=9):
        system = System(cannon_lake_i3_8121u())
        attach_trace(system, system.thread_on(1),
                     random_phi_schedule(800.0, rate, seed=seed))
        return CovertSession(IccThreadCovert(system), SessionConfig(fec=fec))

    def test_hamming_survives_noise_that_kills_uncoded(self):
        coded = self._noisy_session(FecScheme.HAMMING).send(bytes(range(32)))
        uncoded = self._noisy_session(FecScheme.NONE).send(bytes(range(32)))
        assert coded.ok
        assert not uncoded.ok

    def test_retransmissions_recover_residual_errors(self):
        report = self._noisy_session(FecScheme.HAMMING, rate=300.0).send(
            bytes(range(32)))
        assert report.ok
        assert report.retransmissions >= 1

    def test_failed_session_reports_honestly(self):
        report = self._noisy_session(FecScheme.NONE, rate=3000.0).send(
            bytes(range(16)))
        assert not report.ok
        assert report.delivered is None
        assert report.goodput_bps == 0.0
        assert any(not f.delivered for f in report.frames)


class _JammedChannel:
    """A channel whose every transfer arrives fully corrupted.

    Deterministic stand-in for a hopelessly noisy link: received bytes
    are the bitwise complement of what was sent, so no CRC ever passes
    and every retry is spent.  Carries just enough surface for
    :class:`CovertSession` — a ``system.now`` clock and ``transfer``.
    """

    def __init__(self):
        self.system = SimpleNamespace(now=0.0)
        self.transfers = 0

    def transfer(self, payload):
        self.transfers += 1
        start = self.system.now
        self.system.now += 1_000.0
        corrupted = bytes(b ^ 0xFF for b in payload)
        return TransferReport(
            sent=payload,
            received=corrupted,
            symbols_sent=bytes_to_symbols(payload),
            symbols_received=bytes_to_symbols(corrupted),
            measurements_tsc=[],
            start_ns=start,
            end_ns=self.system.now,
            location=ChannelLocation.SAME_THREAD,
        )


class TestRetryExhaustion:
    def test_exhausted_retries_reported_honestly(self):
        channel = _JammedChannel()
        session = CovertSession(
            channel,
            SessionConfig(fec=FecScheme.NONE, max_retries=2, frame_bytes=4))
        report = session.send(bytes(range(8)))  # 2 frames of 4 bytes
        assert not report.ok
        assert report.delivered is None
        assert len(report.frames) == 2
        assert all(not f.delivered for f in report.frames)
        assert all(f.attempts == 3 for f in report.frames)  # 1 + 2 retries
        assert report.total_attempts == 6
        assert report.retransmissions == 4
        assert channel.transfers == 6
        assert report.goodput_bps == 0.0

    def test_zero_retry_budget_means_one_attempt(self):
        channel = _JammedChannel()
        session = CovertSession(
            channel,
            SessionConfig(fec=FecScheme.NONE, max_retries=0, frame_bytes=4))
        report = session.send(b"\xa5\x3c")
        assert not report.ok
        assert report.retransmissions == 0
        assert channel.transfers == 1


class _UntrainableChannel(_JammedChannel):
    """A jammed channel whose every (re)calibration misses a slot.

    ``calibrate`` raises the :class:`ProtocolError` a real channel's
    ``run_symbols`` raises when the receiver produces no measurement for
    a training slot; ``run_symbols`` itself (the quiet-sensing probe)
    fails the same way.
    """

    calibrator = None

    def __init__(self):
        super().__init__()
        self.calibrations = 0

    def calibrate(self, symbols=None):
        self.calibrations += 1
        raise ProtocolError("receiver produced no measurement for slots [3]")

    def run_symbols(self, symbols):
        raise ProtocolError("receiver produced no measurement for slots [0]")

    transfer_robust = _JammedChannel.transfer


class TestMissedTrainingSlot:
    """A missed slot inside the session's own probing never aborts send."""

    def test_recalibration_failure_degrades_and_keeps_the_record(self):
        channel = _UntrainableChannel()
        session = CovertSession(channel, SessionConfig(
            fec=FecScheme.NONE, max_retries=2, frame_bytes=4,
            adaptive=AdaptiveConfig(ber_window=1, ber_bound=0.02,
                                    recalibration_budget=1,
                                    backoff_base_us=0.0)))
        report = session.send(bytes(range(8)))
        assert channel.calibrations == 1
        assert report.recalibrations == 1
        assert report.degraded
        assert not report.ok
        assert [f.attempts for f in report.frames] == [3, 3]

    def test_failed_quiet_sense_counts_as_busy(self):
        channel = _UntrainableChannel()
        session = CovertSession(channel, SessionConfig(
            fec=FecScheme.NONE, max_retries=0, frame_bytes=4,
            wait_for_quiet=True, quiet_patience=3))
        report = session.send(b"\xa5\x3c")
        assert not report.ok
        assert report.frames[0].quiet_senses == 3
        assert channel.transfers == 1


class TestSessionReport:
    def test_attempt_accounting(self):
        from repro.core.session import FrameLog

        report = SessionReport(
            payload=b"ab", delivered=b"ab",
            frames=[FrameLog(0, 2, True), FrameLog(1, 1, True)],
            start_ns=0.0, end_ns=1e9)
        assert report.total_attempts == 3
        assert report.retransmissions == 1
        assert report.goodput_bps == pytest.approx(16.0)


class TestQuietSensing:
    """Section 6.3's third strategy: transmit during quiet periods."""

    def test_quiet_system_senses_quiet(self):
        session = clean_session()
        assert session.channel_is_quiet()

    def test_hot_system_senses_busy_sometimes(self):
        system = System(cannon_lake_i3_8121u())
        attach_trace(system, system.thread_on(1),
                     random_phi_schedule(300.0, 5000.0, seed=3))
        session = CovertSession(IccThreadCovert(system))
        verdicts = [session.channel_is_quiet() for _ in range(12)]
        assert verdicts.count(False) >= 2

    def test_gated_send_records_senses(self):
        session = clean_session(wait_for_quiet=True)
        report = session.send(b"\x42\x43")
        assert report.ok
        assert all(f.quiet_senses >= 1 for f in report.frames)

    def test_patience_validation(self):
        with pytest.raises(ProtocolError):
            SessionConfig(quiet_patience=0)

    def test_gated_send_still_delivers_under_noise(self):
        system = System(cannon_lake_i3_8121u())
        attach_trace(system, system.thread_on(1),
                     random_phi_schedule(900.0, 400.0, seed=21))
        session = CovertSession(
            IccThreadCovert(system),
            SessionConfig(wait_for_quiet=True, quiet_patience=4))
        report = session.send(bytes(range(16)))
        assert report.ok


class TestAdaptiveConfigValidation:
    def test_defaults_valid(self):
        config = AdaptiveConfig()
        assert config.ber_window == 6
        assert config.degraded_fec == FecScheme.REPETITION3

    def test_window_and_bound_validated(self):
        with pytest.raises(ProtocolError):
            AdaptiveConfig(ber_window=0)
        with pytest.raises(ProtocolError):
            AdaptiveConfig(ber_bound=0.0)
        with pytest.raises(ProtocolError):
            AdaptiveConfig(ber_bound=1.0)
        with pytest.raises(ProtocolError):
            AdaptiveConfig(recalibration_budget=-1)
        with pytest.raises(ProtocolError):
            AdaptiveConfig(backoff_base_us=100.0, backoff_max_us=50.0)

    @pytest.mark.parametrize("field, value", [
        ("ber_window", float("nan")),
        ("recalibration_budget", 0.5),
        ("backoff_base_us", float("nan")),
        ("backoff_max_us", float("inf")),
        ("backoff_base_us", True),
    ])
    def test_non_integral_or_non_finite_rejected(self, field, value):
        with pytest.raises(ProtocolError, match=field):
            AdaptiveConfig(**{field: value})


class TestRobustTransfer:
    def test_round_trip_one_bit_per_symbol(self):
        system = System(cannon_lake_i3_8121u())
        report = IccThreadCovert(system).transfer_robust(b"\x5a\x3c")
        assert report.received == b"\x5a\x3c"
        assert report.bits_per_symbol == 1
        assert len(report.symbols_sent) == 16
        assert report.ber == 0.0

    def test_robust_calibration_uses_two_levels(self):
        system = System(cannon_lake_i3_8121u())
        channel = IccThreadCovert(system)
        channel.transfer_robust(b"\x42")
        assert channel._calibrated_symbols == ROBUST_SYMBOLS


class TestAdaptiveSession:
    def test_clean_channel_never_adapts(self):
        session = clean_session(adaptive=AdaptiveConfig())
        report = session.send(bytes(range(12)))
        assert report.ok
        assert report.recalibrations == 0
        assert not report.degraded
        assert report.backoff_ns == 0.0
        assert report.residual_ber == 0.0

    def test_adaptive_identical_to_plain_when_clean(self):
        plain = clean_session().send(b"\x5a\x3c\xc3\x0f")
        adaptive = clean_session(adaptive=AdaptiveConfig()).send(
            b"\x5a\x3c\xc3\x0f")
        assert plain.delivered == adaptive.delivered
        assert plain.total_attempts == adaptive.total_attempts

    def test_backoff_waits_between_retries(self):
        system = System(cannon_lake_i3_8121u())
        from repro.faults import parse_fault_spec

        parse_fault_spec("slot-jitter:seed=11").attach(system)
        session = CovertSession(
            IccCoresCovert(system),
            SessionConfig(max_retries=8, adaptive=AdaptiveConfig()))
        report = session.send(b"\x5a\x0f\xc3\x3c")
        if report.retransmissions:
            assert report.backoff_ns > 0.0

    def test_degrades_under_persistent_faults(self):
        system = System(cannon_lake_i3_8121u())
        from repro.faults import parse_fault_spec

        parse_fault_spec("slot-jitter:sigma_us=3,seed=11").attach(system)
        session = CovertSession(
            IccCoresCovert(system),
            SessionConfig(max_retries=8, adaptive=AdaptiveConfig(
                ber_window=2, ber_bound=0.02, recalibration_budget=1)))
        report = session.send(b"\x5a\x0f\xc3\x3c\xa5\x69\x96\x0a")
        assert report.degraded
        assert any(f.degraded for f in report.frames)

    def test_adaptive_beats_plain_arq_under_default_suite(self):
        # docs/FAULTS.md's claim is statistical, so check it over fault
        # seeds 1-10 rather than at one seed: some seeds leave plain ARQ
        # a benign draw, but the adaptive session must deliver at every
        # seed and plain ARQ must average residual BER above 1e-1.
        from repro.faults import parse_fault_spec

        payload = b"\x5a\x0f\xc3\x3c\xa5\x69\x96\x0a"

        def run(adaptive, seed):
            system = System(cannon_lake_i3_8121u())
            parse_fault_spec(f"default:seed={seed}").attach(system)
            config = SessionConfig(
                max_retries=8,
                adaptive=AdaptiveConfig() if adaptive else None)
            return CovertSession(IccCoresCovert(system), config).send(payload)

        seeds = range(1, 11)
        plain = [run(False, seed).residual_ber for seed in seeds]
        assert sum(plain) / len(plain) > 1e-1
        for seed in seeds:
            resilient = run(True, seed)
            assert resilient.ok and resilient.residual_ber <= 1e-2
            assert resilient.recalibrations > 0 or resilient.degraded

    def test_best_effort_assembly_on_failure(self):
        system = System(cannon_lake_i3_8121u())
        from repro.faults import parse_fault_spec

        parse_fault_spec("slot-jitter:sigma_us=4,seed=3").attach(system)
        session = CovertSession(
            IccCoresCovert(system),
            SessionConfig(max_retries=0))
        payload = b"\x5a\x0f\xc3\x3c"
        report = session.send(payload)
        if not report.ok:
            assert len(report.best_effort) == len(payload)
            assert 0.0 < report.residual_ber <= 1.0
