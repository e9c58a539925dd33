"""Reliable sessions over an unreliable covert channel.

Section 6.3 sketches three noise strategies — averaging/retransmission,
error-correcting codes, and transmitting during quiet periods.
:class:`CovertSession` packages the first two into a reusable transport:

* payloads are split into fixed-size **frames** with a sequence number
  and a CRC-8 trailer;
* each frame is optionally protected with forward error correction
  (extended Hamming or a repetition code) behind a block interleaver, so
  a two-bit symbol error cannot defeat a SECDED block;
* frames failing the CRC after decoding are **retransmitted** (stop-and-
  wait ARQ) up to a retry budget; in this covert setting the "ACK" is
  implicit — the simulation executes both sides, and a real deployment
  would run the paper's reverse channel the same way.

With an :class:`AdaptiveConfig` the session additionally *adapts* to a
degrading substrate (the fault models of :mod:`repro.faults`):

* **drift re-calibration** — when the running raw BER over a sliding
  window of attempts exceeds a bound, re-run threshold calibration (a
  drifting receiver clock or operating point makes thresholds stale, and
  retraining fixes exactly that);
* **exponential-backoff retransmission** — wait out transient
  interference (e.g. a neighbour's PHI bursts) between retries instead
  of hammering a disturbed rail;
* **graceful degradation** — when re-calibration stops helping (or the
  four-level ladder no longer calibrates at all), fall back to two-level
  signalling (:meth:`~repro.core.channel.CovertChannel.transfer_robust`)
  and the stronger configured FEC: half the rate, maximal decision
  margins.

The state machine lives in :meth:`CovertSession.send` and is documented
(with a diagram) in ``docs/FAULTS.md``.  The session works over any
:class:`~repro.core.channel.CovertChannel`.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

from repro.core.channel import CovertChannel
from repro.core.ecc import CRC8, Hamming74, RepetitionCode, deinterleave, interleave
from repro.core.encoding import bits_to_bytes, bytes_to_bits
from repro.core.levels import ROBUST_SYMBOLS
from repro.errors import CalibrationError, ProtocolError, bounded, check_fields
from repro.obs.tracer import current as _obs
from repro.units import bits_per_second, us_to_ns


@enum.unique
class FecScheme(enum.Enum):
    """Forward-error-correction options for session frames."""

    NONE = "none"
    HAMMING = "hamming"          # extended Hamming(8,4): rate 1/2, SECDED
    REPETITION3 = "repetition3"  # rate 1/3, majority vote


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the adaptive (fault-surviving) session behaviour.

    Parameters
    ----------
    ber_window:
        Sliding window of recent transfer attempts whose mean raw BER
        drives the adaptation decisions.
    ber_bound:
        Windowed mean raw BER above which the session intervenes —
        re-calibrating while budget remains, degrading afterwards.
    recalibration_budget:
        Re-calibrations allowed per :meth:`CovertSession.send` before
        the session concludes retraining no longer helps and degrades.
    backoff_base_us / backoff_max_us:
        Exponential backoff between retransmissions of one frame: the
        k-th retry waits ``min(backoff_max_us, backoff_base_us *
        2**(k-1))`` microseconds, letting transient interference pass.
    degraded_fec:
        FEC used after degrading to two-level signalling (the default
        rate-1/3 repetition code trades more rate for margin).
    """

    ber_window: int = bounded(6, ge=1)
    ber_bound: float = bounded(0.08, gt=0, lt=1)
    recalibration_budget: int = bounded(2, ge=0)
    backoff_base_us: float = bounded(1500.0, ge=0)
    backoff_max_us: float = 25_000.0
    degraded_fec: FecScheme = FecScheme.REPETITION3

    def __post_init__(self) -> None:
        check_fields(self, ProtocolError)
        if self.backoff_base_us > self.backoff_max_us:
            raise ProtocolError(
                f"backoff_base_us must be <= backoff_max_us, got "
                f"{self.backoff_base_us!r} / {self.backoff_max_us!r}")


@dataclass(frozen=True)
class SessionConfig:
    """Transport parameters.

    Parameters
    ----------
    frame_bytes:
        Payload bytes per frame (excluding the 2-byte header and the
        CRC trailer).  Smaller frames lose less per retransmission.
    fec:
        Forward error correction applied to each framed payload.
    max_retries:
        Retransmissions allowed per frame before the session fails.
    """

    frame_bytes: int = bounded(8, ge=1, le=250)
    fec: FecScheme = FecScheme.HAMMING
    max_retries: int = bounded(4, ge=0)
    #: Section 6.3's third strategy: sense the channel before each frame
    #: and defer while another application's PHIs are perturbing it.
    wait_for_quiet: bool = False
    #: Sense attempts per frame before transmitting anyway.
    quiet_patience: int = bounded(8, ge=1)
    #: Adaptive behaviour (re-calibration, backoff, degradation); None
    #: keeps the session a plain stop-and-wait transport.
    adaptive: Optional[AdaptiveConfig] = None

    def __post_init__(self) -> None:
        check_fields(self, ProtocolError)

    @property
    def code_rate(self) -> float:
        """Information bits per channel bit of the chosen FEC."""
        if self.fec == FecScheme.HAMMING:
            return 0.5
        if self.fec == FecScheme.REPETITION3:
            return 1.0 / 3.0
        return 1.0


@dataclass
class FrameLog:
    """What happened to one frame."""

    sequence: int
    attempts: int
    delivered: bool
    raw_ber_per_attempt: List[float] = field(default_factory=list)
    quiet_senses: int = 0
    #: Best-effort payload recovered on the last attempt (even when the
    #: CRC failed); feeds :attr:`SessionReport.residual_ber`.
    last_recovered: Optional[bytes] = None
    #: True when at least one attempt of this frame used degraded
    #: two-level signalling.
    degraded: bool = False


@dataclass
class SessionReport:
    """Outcome of one session send."""

    payload: bytes
    delivered: Optional[bytes]
    frames: List[FrameLog]
    start_ns: float
    end_ns: float
    #: Best-effort reassembly: delivered chunks where frames succeeded,
    #: the last recovered (CRC-failing) bytes where they did not.
    best_effort: bytes = b""
    #: Threshold re-calibrations the adaptive machinery ran.
    recalibrations: int = 0
    #: True when the session ended in degraded two-level signalling.
    degraded: bool = False
    #: Simulated time spent in exponential backoff between retries.
    backoff_ns: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the payload arrived intact."""
        return self.delivered == self.payload

    @property
    def residual_ber(self) -> float:
        """Payload bit errors remaining after every mitigation.

        Zero for an intact delivery; otherwise the Hamming distance
        between the payload and the best-effort reassembly, over the
        payload bits — the honest "what the receiver ends up with"
        number the resilience experiment compares across sessions.
        """
        total = len(self.payload) * 8
        if total == 0 or self.ok:
            return 0.0
        wrong = 0
        for i, byte in enumerate(self.payload):
            other = self.best_effort[i] if i < len(self.best_effort) else None
            if other is None:
                wrong += 8
            else:
                wrong += bin(byte ^ other).count("1")
        return wrong / total

    @property
    def total_attempts(self) -> int:
        """Channel transfers used, including retransmissions."""
        return sum(f.attempts for f in self.frames)

    @property
    def retransmissions(self) -> int:
        """Extra transfers beyond one per frame."""
        return self.total_attempts - len(self.frames)

    @property
    def goodput_bps(self) -> float:
        """Delivered payload bits per second of wall time."""
        if not self.ok or self.end_ns <= self.start_ns:
            return 0.0
        return bits_per_second(len(self.payload) * 8,
                               self.end_ns - self.start_ns)


class CovertSession:
    """Framed, FEC-protected, retransmitting transport over a channel."""

    def __init__(self, channel: CovertChannel,
                 config: SessionConfig = SessionConfig()) -> None:
        self.channel = channel
        self.config = config
        self._crc = CRC8()
        self._hamming: Optional[Hamming74] = None
        self._repetition: Optional[RepetitionCode] = None
        self._set_fec(config.fec)
        self._degraded = False
        self._recalibrations = 0

    def _set_fec(self, scheme: FecScheme) -> None:
        """Select the active FEC (degradation switches it mid-session)."""
        self._fec = scheme
        self._hamming = (Hamming74(extended=True)
                         if scheme == FecScheme.HAMMING else None)
        self._repetition = (RepetitionCode(3)
                            if scheme == FecScheme.REPETITION3 else None)

    # -- framing -----------------------------------------------------------------

    def _frame(self, sequence: int, chunk: bytes) -> bytes:
        """[length][sequence][payload][crc] over everything before it."""
        header = bytes([len(chunk), sequence & 0xFF])
        return self._crc.append(header + chunk)

    def _parse_frame(self, framed: bytes) -> Optional[Tuple[int, bytes]]:
        """(sequence, payload) if the CRC and length check out."""
        if len(framed) < 3 or not self._crc.verify(framed):
            return None
        length, sequence = framed[0], framed[1]
        payload = framed[2:-1]
        if len(payload) != length:
            return None
        return sequence, payload

    # -- FEC ----------------------------------------------------------------------

    def _protect(self, framed: bytes) -> bytes:
        """Apply the configured FEC to a framed chunk."""
        bits = bytes_to_bits(framed)
        if self._hamming is not None:
            coded = self._hamming.encode(bits)
            coded = interleave(coded, depth=self._hamming.block_bits)
            return bits_to_bytes(coded)
        if self._repetition is not None:
            coded = self._repetition.encode(bits)
            pad = (-len(coded)) % 8
            return bits_to_bytes(coded + [0] * pad)
        return framed

    def _unprotect(self, wire: bytes, framed_len: int) -> bytes:
        """Undo the configured FEC on received wire bytes."""
        bits = bytes_to_bits(wire)
        if self._hamming is not None:
            coded_len = framed_len * 8 * 2
            coded = deinterleave(bits[:coded_len],
                                 depth=self._hamming.block_bits)
            return bits_to_bytes(self._hamming.decode(coded))
        if self._repetition is not None:
            coded_len = framed_len * 8 * 3
            return bits_to_bytes(self._repetition.decode(bits[:coded_len]))
        return wire[:framed_len]

    # -- transport ------------------------------------------------------------------

    def _chunks(self, payload: bytes) -> List[bytes]:
        """Split ``payload`` into frame-sized chunks."""
        size = self.config.frame_bytes
        return [payload[i:i + size] for i in range(0, len(payload), size)]

    # -- quiet-period sensing --------------------------------------------------------

    def channel_is_quiet(self) -> bool:
        """Probe the channel once and judge whether it is undisturbed.

        Sends a single known training symbol and checks that the reading
        lands where calibration put that level.  A concurrent
        application's PHI activity — a foreign transition in flight, or
        a foreign grant masking the probe — pushes the reading out of
        its cluster.  Costs one slot.
        """
        if self.channel.calibrator is None:
            self.channel.calibrate()
        calibrator = self.channel.calibrator
        assert calibrator is not None
        reading = self.channel.run_symbols([0])[0]
        center = calibrator.stats[0].center
        thresholds = calibrator.thresholds
        if thresholds:
            nearest = min(abs(t - center) for t in thresholds)
        else:
            nearest = abs(center) or 1.0
        return abs(reading - center) <= 0.9 * nearest

    def _await_quiet(self) -> int:
        """Sense until quiet (or patience runs out); returns senses used."""
        senses = 0
        for _ in range(self.config.quiet_patience):
            senses += 1
            try:
                if self.channel_is_quiet():
                    break
            except ProtocolError:
                # A probe (or the calibration behind it) that lost a
                # slot saw a disturbed channel, not a quiet one.
                pass
        return senses

    # -- adaptive interventions ------------------------------------------------------

    def _degrade(self, reason: str) -> None:
        """Fall back to two-level signalling and the degraded FEC."""
        adaptive = self.config.adaptive
        assert adaptive is not None
        self._degraded = True
        self._set_fec(adaptive.degraded_fec)
        tracer = _obs()
        if tracer.enabled:
            tracer.metrics.counter("session.degradations").inc()
            tracer.instant("session.degrade", "session",
                           self.channel.system.now, track="session",
                           args={"reason": reason})

    def _recalibrate(self) -> None:
        """Re-run threshold calibration in the current signalling mode."""
        try:
            if self._degraded:
                self.channel.calibrate(symbols=ROBUST_SYMBOLS)
            else:
                self.channel.calibrate()
        except ProtocolError:
            # The ladder no longer calibrates at all (overlapping levels,
            # or a training slot with no measurement): the strongest
            # remaining move is two-level signalling (whose wider gaps
            # may still clear min_gap); a second failure there leaves
            # retransmission as the only defence.
            if not self._degraded:
                self._degrade("calibration failed")
        tracer = _obs()
        if tracer.enabled:
            tracer.metrics.counter("session.recalibrations").inc()

    def _adapt(self, window: "Deque[float]", raw_ber: float,
               calibration_failed: bool) -> None:
        """One post-attempt step of the adaptive state machine."""
        adaptive = self.config.adaptive
        assert adaptive is not None
        if calibration_failed and not self._degraded:
            self._degrade("calibration failed")
            window.clear()
            return
        window.append(raw_ber)
        mean = sum(window) / len(window)
        if mean <= adaptive.ber_bound:
            return
        if self._recalibrations < adaptive.recalibration_budget:
            self._recalibrations += 1
            window.clear()
            self._recalibrate()
        elif not self._degraded:
            self._degrade(f"windowed BER {mean:.3f} after "
                          f"{self._recalibrations} recalibrations")
            window.clear()

    def _backoff(self, attempt: int) -> float:
        """Exponential wait before retry ``attempt`` (1-based); ns waited."""
        adaptive = self.config.adaptive
        if adaptive is None or attempt < 1 or adaptive.backoff_base_us <= 0:
            return 0.0
        wait_ns = us_to_ns(min(adaptive.backoff_max_us,
                               adaptive.backoff_base_us * (2 ** (attempt - 1))))
        system = self.channel.system
        system.run_until(system.now + wait_ns)
        return wait_ns

    def send(self, payload: bytes) -> SessionReport:
        """Deliver ``payload`` reliably; returns the session record."""
        if not payload:
            raise ProtocolError("payload is empty")
        adaptive = self.config.adaptive
        # A fresh send starts in nominal mode with the configured FEC.
        self._set_fec(self.config.fec)
        self._degraded = False
        self._recalibrations = 0
        backoff_ns = 0.0
        window: Deque[float] = deque(
            maxlen=adaptive.ber_window if adaptive else 1)
        start = self.channel.system.now
        logs: List[FrameLog] = []
        delivered_chunks: List[Optional[bytes]] = []
        chunks = self._chunks(payload)
        for sequence, chunk in enumerate(chunks):
            log = FrameLog(sequence=sequence, attempts=0, delivered=False)
            received_chunk: Optional[bytes] = None
            for attempt in range(1 + self.config.max_retries):
                if attempt:
                    backoff_ns += self._backoff(attempt)
                if self.config.wait_for_quiet:
                    log.quiet_senses += self._await_quiet()
                log.attempts += 1
                # Re-framed every attempt: degradation switches the FEC,
                # so yesterday's wire bytes may no longer apply.
                framed = self._frame(sequence, chunk)
                wire = self._protect(framed)
                attempt_start = self.channel.system.now
                raw_ber = 1.0
                recovered: Optional[bytes] = None
                failure: Optional[str] = None
                try:
                    if self._degraded:
                        report = self.channel.transfer_robust(wire)
                    else:
                        report = self.channel.transfer(wire)
                    raw_ber = report.ber
                    recovered = self._unprotect(report.received, len(framed))
                except CalibrationError as exc:
                    failure = f"calibration: {exc}"
                except ProtocolError as exc:
                    failure = f"protocol: {exc}"
                log.raw_ber_per_attempt.append(raw_ber)
                log.degraded = log.degraded or self._degraded
                parsed = (self._parse_frame(recovered)
                          if recovered is not None else None)
                accepted = parsed is not None and parsed[0] == (sequence & 0xFF)
                if recovered is not None:
                    log.last_recovered = recovered[2:2 + len(chunk)]
                tracer = _obs()
                if tracer.enabled:
                    tracer.metrics.counter("session.attempts").inc()
                    if not accepted:
                        tracer.metrics.counter("session.crc_failures").inc()
                    args = {"sequence": sequence, "attempt": log.attempts,
                            "accepted": accepted,
                            "raw_ber": round(raw_ber, 6),
                            "degraded": self._degraded}
                    if failure is not None:
                        args["failure"] = failure
                    tracer.complete(
                        "session.frame_attempt", "session", attempt_start,
                        self.channel.system.now - attempt_start,
                        track="session", args=args,
                    )
                if adaptive is not None:
                    self._adapt(window, raw_ber, failure is not None
                                and failure.startswith("calibration"))
                if accepted:
                    assert parsed is not None
                    received_chunk = parsed[1]
                    log.delivered = True
                    break
            tracer = _obs()
            if tracer.enabled:
                tracer.metrics.counter("session.frames").inc()
                tracer.metrics.counter(
                    "session.retransmissions").inc(log.attempts - 1)
                tracer.metrics.histogram(
                    "session.attempts_per_frame").observe(log.attempts)
                if not log.delivered:
                    tracer.metrics.counter("session.frames_failed").inc()
                    tracer.instant(
                        "session.retry_exhausted", "session",
                        self.channel.system.now, track="session",
                        args={"sequence": sequence, "attempts": log.attempts},
                    )
            logs.append(log)
            delivered_chunks.append(received_chunk)
        delivered: Optional[bytes]
        if any(chunk is None for chunk in delivered_chunks):
            delivered = None
        else:
            delivered = b"".join(c for c in delivered_chunks if c is not None)
        best_parts: List[bytes] = []
        for i, chunk in enumerate(chunks):
            best = delivered_chunks[i]
            if best is None:
                best = logs[i].last_recovered or b""
            best_parts.append(best[:len(chunk)].ljust(len(chunk), b"\0"))
        return SessionReport(
            payload=payload,
            delivered=delivered,
            frames=logs,
            start_ns=start,
            end_ns=self.channel.system.now,
            best_effort=b"".join(best_parts),
            recalibrations=self._recalibrations,
            degraded=self._degraded,
            backoff_ns=backoff_ns,
        )
