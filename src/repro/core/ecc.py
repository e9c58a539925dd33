"""Error handling for noisy channels (Section 6.3 mitigations).

The paper lists three receiver-side strategies against system noise:

1. **Averaging** — send the value many times, average the measurements
   (:class:`RepetitionCode` with majority voting is the digital analog).
2. **Error detection and correction codes** — we provide Hamming(7,4)
   with an extended SECDED parity bit and a CRC-8 detector.
3. **Quiet-period gating** — transmit only when the system is idle
   (implemented at the protocol layer; see
   :func:`repro.core.capacity.effective_throughput_bps` for its cost
   accounting).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import ProtocolError

_HAMMING_DATA_POSITIONS = (2, 4, 5, 6)  # 0-indexed positions of d1..d4
_HAMMING_PARITY_POSITIONS = (0, 1, 3)   # p1, p2, p4


def _check_bits(bits: Sequence[int]) -> List[int]:
    """The bits as a list; ProtocolError unless each is 0 or 1."""
    if any(bit not in (0, 1) for bit in bits):
        raise ProtocolError("bits must be 0 or 1")
    return list(bits)


@dataclass(frozen=True)
class RepetitionCode:
    """Send every bit ``n`` times; decode by majority vote.

    ``n`` must be odd so the vote cannot tie.  Corrects up to
    ``(n - 1) / 2`` errors per bit.
    """

    n: int = 3

    def __post_init__(self) -> None:
        if self.n < 1 or self.n % 2 == 0:
            raise ProtocolError(f"repetition factor must be odd >= 1, got {self.n}")

    @property
    def rate(self) -> float:
        """Code rate (information bits per transmitted bit)."""
        return 1.0 / self.n

    def encode(self, bits: Sequence[int]) -> List[int]:
        """Repeat each bit ``n`` times."""
        out: List[int] = []
        for bit in _check_bits(bits):
            out.extend([bit] * self.n)
        return out

    def decode(self, coded: Sequence[int]) -> List[int]:
        """Majority-vote each group of ``n`` bits."""
        coded = _check_bits(coded)
        if len(coded) % self.n != 0:
            raise ProtocolError(
                f"coded length {len(coded)} is not a multiple of {self.n}"
            )
        out = []
        for i in range(0, len(coded), self.n):
            votes = Counter(coded[i:i + self.n])
            out.append(1 if votes[1] > votes[0] else 0)
        return out


class Hamming74:
    """Hamming(7,4) with an optional extended (SECDED) parity bit.

    Encodes 4 data bits into 7 (or 8 with ``extended=True``).  Corrects
    any single-bit error per block; the extended parity additionally
    *detects* double-bit errors (reported via :meth:`decode_block`).
    """

    def __init__(self, extended: bool = True) -> None:
        self.extended = extended

    @property
    def block_bits(self) -> int:
        """Transmitted bits per block."""
        return 8 if self.extended else 7

    @property
    def rate(self) -> float:
        """Code rate."""
        return 4.0 / self.block_bits

    def encode_block(self, data: Sequence[int]) -> List[int]:
        """Encode exactly 4 data bits into one block."""
        data = _check_bits(data)
        if len(data) != 4:
            raise ProtocolError(f"Hamming(7,4) blocks carry 4 bits, got {len(data)}")
        d1, d2, d3, d4 = data
        p1 = d1 ^ d2 ^ d4
        p2 = d1 ^ d3 ^ d4
        p4 = d2 ^ d3 ^ d4
        block = [p1, p2, d1, p4, d2, d3, d4]
        if self.extended:
            block.append(sum(block) % 2)
        return block

    def decode_block(self, block: Sequence[int]) -> "tuple[List[int], bool, bool]":
        """Decode one block; returns (data, corrected, uncorrectable).

        ``corrected`` is True when a single-bit error was repaired;
        ``uncorrectable`` is True when the extended parity exposed a
        double-bit error (data is then best-effort).
        """
        block = _check_bits(block)
        if len(block) != self.block_bits:
            raise ProtocolError(
                f"expected {self.block_bits}-bit block, got {len(block)}"
            )
        code = list(block[:7])
        syndrome = 0
        for parity_index, positions in (
            (1, (0, 2, 4, 6)),
            (2, (1, 2, 5, 6)),
            (4, (3, 4, 5, 6)),
        ):
            if sum(code[p] for p in positions) % 2:
                syndrome += parity_index
        corrected = False
        uncorrectable = False
        if self.extended:
            overall_ok = (sum(block) % 2) == 0
            if syndrome and not overall_ok:
                code[syndrome - 1] ^= 1
                corrected = True
            elif syndrome and overall_ok:
                uncorrectable = True  # double-bit error detected
            elif not syndrome and not overall_ok:
                corrected = True  # error in the extended parity bit itself
        elif syndrome:
            code[syndrome - 1] ^= 1
            corrected = True
        data = [code[p] for p in _HAMMING_DATA_POSITIONS]
        return data, corrected, uncorrectable

    def encode(self, bits: Sequence[int]) -> List[int]:
        """Encode a bit stream (length must be a multiple of 4)."""
        bits = _check_bits(bits)
        if len(bits) % 4 != 0:
            raise ProtocolError(f"bit count {len(bits)} is not a multiple of 4")
        out: List[int] = []
        for i in range(0, len(bits), 4):
            out.extend(self.encode_block(bits[i:i + 4]))
        return out

    def decode(self, coded: Sequence[int]) -> List[int]:
        """Decode a coded stream, correcting single-bit errors per block."""
        coded = _check_bits(coded)
        if len(coded) % self.block_bits != 0:
            raise ProtocolError(
                f"coded length {len(coded)} is not a multiple of {self.block_bits}"
            )
        out: List[int] = []
        for i in range(0, len(coded), self.block_bits):
            data, _, _ = self.decode_block(coded[i:i + self.block_bits])
            out.extend(data)
        return out


def interleave(bits: Sequence[int], depth: int) -> List[int]:
    """Block-interleave a bit stream (write row-major, read column-major).

    A symbol error on the channel corrupts *two adjacent* bits; without
    interleaving both can land in the same Hamming block and defeat its
    single-error correction.  Reading column-major places channel-
    adjacent bits ``depth`` positions apart in the original stream, so
    with ``depth >= block_bits`` (8 for extended Hamming) each code
    block absorbs at most one bit of any symbol error.

    Works on any symbol sequence, not only bits.
    """
    bits = list(bits)
    if depth < 1:
        raise ProtocolError(f"interleaver depth must be >= 1, got {depth}")
    if len(bits) % depth != 0:
        raise ProtocolError(
            f"bit count {len(bits)} is not a multiple of depth {depth}"
        )
    rows = len(bits) // depth
    return [bits[row * depth + col] for col in range(depth) for row in range(rows)]


def deinterleave(bits: Sequence[int], depth: int) -> List[int]:
    """Inverse of :func:`interleave`."""
    bits = list(bits)
    if depth < 1:
        raise ProtocolError(f"interleaver depth must be >= 1, got {depth}")
    if len(bits) % depth != 0:
        raise ProtocolError(
            f"bit count {len(bits)} is not a multiple of depth {depth}"
        )
    rows = len(bits) // depth
    out = [0] * len(bits)
    position = 0
    for col in range(depth):
        for row in range(rows):
            out[row * depth + col] = bits[position]
            position += 1
    return out


class CRC8:
    """CRC-8 (polynomial 0x07) for payload integrity checks."""

    POLY = 0x07

    def checksum(self, data: bytes) -> int:
        """CRC-8 of ``data``."""
        crc = 0
        for byte in data:
            crc ^= byte
            for _ in range(8):
                if crc & 0x80:
                    crc = ((crc << 1) ^ self.POLY) & 0xFF
                else:
                    crc = (crc << 1) & 0xFF
        return crc

    def append(self, data: bytes) -> bytes:
        """Payload with its CRC byte appended."""
        return data + bytes([self.checksum(data)])

    def verify(self, framed: bytes) -> bool:
        """Whether the trailing CRC byte matches the payload."""
        if len(framed) < 2:
            raise ProtocolError("framed payload needs at least 2 bytes")
        return self.checksum(framed[:-1]) == framed[-1]
