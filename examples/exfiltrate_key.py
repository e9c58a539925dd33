#!/usr/bin/env python
"""Cross-core exfiltration of an AES key under realistic noise.

The scenario of Section 4's attacker model: a sender process that can
read a 128-bit key but has no overt channel, and a receiver on another
physical core.  The system is noisy — OS interrupts and context switches
hit both parties, and a 7-zip-like compressor shares the sender's core
sibling thread.  The payload is protected the way Section 6.3 suggests:
Hamming(8,4) SECDED for correction, a block interleaver so a symbol
error cannot hit one block twice, and a CRC-8 for end-to-end integrity.

Run::

    python examples/exfiltrate_key.py
"""

import _pathfix  # noqa: F401  (sys.path setup for uninstalled runs)

from repro import System, cannon_lake_i3_8121u
from repro.core import CRC8, Hamming74, IccCoresCovert
from repro.core.ecc import deinterleave, interleave
from repro.core.encoding import bits_to_bytes, bytes_to_bits
from repro.isa.workload import sevenzip_like_trace
from repro.soc.noise import NoiseConfig, attach_system_noise, attach_trace
from repro.units import ms_to_ns

AES_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


def protect(payload: bytes) -> bytes:
    """CRC-frame, Hamming-encode and interleave a payload for the wire."""
    framed = CRC8().append(payload)
    code = Hamming74()
    coded = code.encode(bytes_to_bits(framed))
    return bits_to_bytes(interleave(coded, depth=code.block_bits))


def recover(wire: bytes, payload_len: int) -> "tuple[bytes, bool]":
    """Invert :func:`protect`; returns (payload, crc_ok)."""
    code = Hamming74()
    coded = deinterleave(bytes_to_bits(wire), depth=code.block_bits)
    framed = bits_to_bytes(code.decode(coded))
    return framed[:payload_len], CRC8().verify(framed[:payload_len + 1])


def main() -> None:
    system = System(cannon_lake_i3_8121u())

    # OS noise on both communicating threads for the whole session.
    horizon = ms_to_ns(400.0)
    attach_system_noise(
        system,
        [system.thread_on(0, 0), system.thread_on(1, 0)],
        NoiseConfig(interrupt_rate_per_s=500.0, ctx_switch_rate_per_s=100.0),
        horizon_ns=horizon,
        seed=42,
    )
    # A lightly-loaded 7-zip-like compressor on the receiver core's
    # sibling SMT thread: its sparse AVX2 bursts perturb the shared rail
    # and occasionally mask whole transactions.  (On this 2-core part a
    # heavily-loaded compressor would mask ~20% of slots — the paper's
    # answer for that regime is to wait for a quiet period, Section 6.3.)
    attach_trace(system, system.thread_on(1, 1),
                 sevenzip_like_trace(total_ms=400.0, seed=7,
                                     mean_scalar_us=20_000.0))

    wire = protect(AES_KEY)
    print(f"key            : {AES_KEY.hex()}")
    print(f"wire payload   : {len(wire)} bytes "
          f"({len(wire) * 8} channel bits after SECDED + CRC)")

    channel = IccCoresCovert(system, sender_core=0, receiver_core=1)

    # Section 6.3's noise strategy: detect residual corruption with the
    # CRC and retransmit until a frame survives.
    for attempt in range(1, 6):
        report = channel.transfer(wire)
        recovered, crc_ok = recover(report.received, len(AES_KEY))
        print(f"attempt {attempt}: raw BER {report.ber:.4f} "
              f"({report.bit_errors}/{report.bits} bits), "
              f"CRC {'PASS' if crc_ok else 'FAIL'}")
        if crc_ok:
            break

    print(f"recovered key  : {recovered.hex()}")
    print(f"key match      : {'YES' if recovered == AES_KEY else 'NO'}")
    print(f"throughput     : {report.throughput_bps:,.0f} bit/s on the wire, "
          f"{report.throughput_bps * 0.5:,.0f} bit/s of key material "
          f"(rate-1/2 code)")

    session_demo()


def session_demo() -> None:
    """The same exfiltration through the high-level session transport.

    :class:`~repro.core.session.CovertSession` packages the framing, FEC,
    interleaving and CRC-driven retransmission above into one call.
    """
    from repro.core.session import CovertSession, SessionConfig

    print("\n--- same attack via CovertSession (framing + FEC + ARQ) ---")
    system = System(cannon_lake_i3_8121u())
    attach_system_noise(
        system,
        [system.thread_on(0, 0), system.thread_on(1, 0)],
        NoiseConfig(interrupt_rate_per_s=500.0, ctx_switch_rate_per_s=100.0),
        horizon_ns=ms_to_ns(600.0),
        seed=43,
    )
    attach_trace(system, system.thread_on(1, 1),
                 sevenzip_like_trace(total_ms=600.0, seed=7,
                                     mean_scalar_us=20_000.0))
    channel = IccCoresCovert(system, sender_core=0, receiver_core=1)
    session = CovertSession(channel, SessionConfig(frame_bytes=8))
    report = session.send(AES_KEY)
    print(f"delivered      : {'YES' if report.ok else 'NO'} "
          f"({report.delivered.hex() if report.delivered else '-'})")
    print(f"frames         : {len(report.frames)} "
          f"(+{report.retransmissions} retransmissions)")
    print(f"goodput        : {report.goodput_bps:,.0f} bit/s of key material")


if __name__ == "__main__":
    main()
