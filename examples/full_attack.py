#!/usr/bin/env python
"""The complete kill chain, end to end, on one simulated machine.

Walks every stage an IChannels attacker (and the defender) goes
through:

1. **Reconnaissance** — feasibility analysis from the part's electrical
   description: which channels can work here at all?
2. **Side-channel phase** — a spy on the victim's SMT sibling steals an
   access key from key-dependent code paths (§6.5).
3. **Covert exfiltration** — the stolen key is shipped across physical
   cores through a reliable session (framing + SECDED + CRC ARQ +
   quiet-period sensing) while OS noise and a compressor run.
4. **Defence** — a software monitor flags the channel's clocked
   throttle train; the attacker re-runs with slot jitter and evades it;
   finally, secure mode removes the channel outright.

Run::

    python examples/full_attack.py
"""

import _pathfix  # noqa: F401  (sys.path setup for uninstalled runs)

from repro import System, SystemOptions, cannon_lake_i3_8121u
from repro.core import (
    ChannelConfig,
    ChannelLocation,
    IccCoresCovert,
    IccThreadCovert,
    InstructionClassSpy,
    KeyDependentVictim,
)
from repro.core.session import CovertSession, SessionConfig
from repro.errors import CalibrationError
from repro.isa.workload import sevenzip_like_trace
from repro.mitigations import ThrottleAnomalyDetector
from repro.soc import analyze_feasibility
from repro.soc.noise import NoiseConfig, attach_system_noise, attach_trace
from repro.units import ms_to_ns


def stage1_recon() -> None:
    """Feasibility from the datasheet-level description alone."""
    print("=== stage 1: reconnaissance (no code executed yet) ===")
    report = analyze_feasibility(cannon_lake_i3_8121u())
    for verdict in report.channels:
        status = "feasible" if verdict.feasible else "infeasible"
        print(f"  {verdict.location.value:14s}: {status} "
              f"(level gap {verdict.min_level_gap_tsc:.0f} TSC cycles)")


def stage2_steal_key() -> "list[int]":
    """SMT-sibling spy against key-dependent code paths."""
    print("\n=== stage 2: steal the key via the SMT side channel ===")
    system = System(cannon_lake_i3_8121u())
    spy = InstructionClassSpy(system, ChannelLocation.ACROSS_SMT)
    key = [1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1]
    stolen = spy.steal_key(KeyDependentVictim(), key)
    hits = sum(1 for a, b in zip(key, stolen) if a == b)
    print(f"  victim key : {''.join(map(str, key))}")
    print(f"  stolen key : {''.join(map(str, stolen))}  ({hits}/{len(key)})")
    return stolen


def stage3_exfiltrate(key_bits: "list[int]") -> None:
    """Ship the key across cores through a noisy, shared machine."""
    print("\n=== stage 3: exfiltrate across cores, reliably, in noise ===")
    payload = bytes(
        int("".join(map(str, key_bits[i:i + 8])), 2)
        for i in range(0, len(key_bits), 8)
    )
    system = System(cannon_lake_i3_8121u())
    attach_system_noise(
        system, [system.thread_on(0, 0), system.thread_on(1, 0)],
        NoiseConfig(), horizon_ns=ms_to_ns(300.0), seed=1234)
    attach_trace(system, system.thread_on(1, 1),
                 sevenzip_like_trace(total_ms=300.0, seed=5,
                                     mean_scalar_us=20_000.0))
    session = CovertSession(
        IccCoresCovert(system),
        SessionConfig(frame_bytes=2, wait_for_quiet=True))
    report = session.send(payload)
    print(f"  delivered  : {'YES' if report.ok else 'NO'} "
          f"({report.delivered.hex() if report.delivered else '-'})")
    print(f"  frames     : {len(report.frames)} "
          f"(+{report.retransmissions} retransmissions, "
          f"{sum(f.quiet_senses for f in report.frames)} quiet senses)")
    print(f"  goodput    : {report.goodput_bps:,.0f} bit/s")


def stage4_defend() -> None:
    """Detection, evasion, and the hardware endgame."""
    print("\n=== stage 4: the defender's options ===")
    detector = ThrottleAnomalyDetector()

    clocked = System(cannon_lake_i3_8121u())
    IccThreadCovert(clocked).transfer(b"exfil!")
    print(f"  monitor vs clocked channel : flagged="
          f"{detector.any_flagged(clocked)}")

    stealthy = System(cannon_lake_i3_8121u())
    IccThreadCovert(stealthy,
                    ChannelConfig(slot_jitter_us=400.0)).transfer(b"exfil!")
    print(f"  monitor vs jittered channel: flagged="
          f"{detector.any_flagged(stealthy)} (attacker evades, slower)")

    secure = System(cannon_lake_i3_8121u(),
                    options=SystemOptions(secure_mode=True))
    try:
        IccThreadCovert(secure).calibrate()
        outcome = "channel still works (!)"
    except CalibrationError:
        outcome = "channel dead"
    print(f"  secure mode                : {outcome} "
          f"(hardware endgame, 4-11% power)")


def main() -> None:
    stage1_recon()
    stolen = stage2_steal_key()
    stage3_exfiltrate(stolen)
    stage4_defend()


if __name__ == "__main__":
    main()
