#!/usr/bin/env python
"""The three mitigations of Section 7, attacked one by one.

For every (channel, mitigation) pair this demo boots a mitigated
machine, lets the attacker calibrate as hard as it can (no minimum
cluster separation), and reports whether the channel still carries
data — reproducing Table 1 — together with the cost column: the
secure-mode power overhead is measured from the simulated rail, the
others quoted from the paper.

Run::

    python examples/mitigation_demo.py
"""

import _pathfix  # noqa: F401  (sys.path setup for uninstalled runs)

from repro.mitigations import TABLE1_DEFENDERS, evaluate_all
from repro.mitigations.matrix.defenders import get_defender
from repro.soc.config import cannon_lake_i3_8121u

VERDICT_TEXT = {
    "OPEN": "channel still works",
    "PARTIAL": "decodable only in a noise-free world",
    "MITIGATED": "channel dead",
}


def main() -> None:
    config = cannon_lake_i3_8121u()
    print(f"evaluating mitigations on {config.codename} ({config.name})\n")
    report = evaluate_all()

    channels = ["IccThreadCovert", "IccSMTcovert", "IccCoresCovert"]
    for defender in TABLE1_DEFENDERS:
        print(f"--- {defender} "
              f"(overhead: {get_defender(defender).overhead_note}) ---")
        for channel in channels:
            outcome = next(o for o in report.outcomes
                           if o.channel == channel
                           and o.defender == defender)
            print(f"  {channel:16s} {outcome.verdict:10s} "
                  f"BER={outcome.ber:.2f}  level separation="
                  f"{outcome.min_separation_tsc:6.0f} cycles   "
                  f"({VERDICT_TEXT[outcome.verdict]})")
        print()

    print(f"secure-mode power overhead (measured): "
          f"{report.secure_mode_power_overhead * 100:.1f}% "
          f"(paper: 4-11%)")
    print("\nPaper's Table 1, for comparison:")
    print("  per-core VR         : Partially / Partially / mitigated")
    print("  improved throttling : open      / mitigated / open")
    print("  secure mode         : mitigated / mitigated / mitigated")

    detection_demo()


def detection_demo() -> None:
    """Software-only defence on today's hardware: pattern detection.

    A defender watching the front-end-stall PMCs can flag the channels'
    clocked throttle trains — and the attacker can answer with slot
    jitter, at a throughput cost.
    """
    from repro import System
    from repro.core import IccThreadCovert
    from repro.core.channel import ChannelConfig
    from repro.mitigations import ThrottleAnomalyDetector

    print("\n--- software detection on unmitigated hardware ---")
    detector = ThrottleAnomalyDetector()

    clocked = System(cannon_lake_i3_8121u())
    plain = IccThreadCovert(clocked).transfer(bytes(range(8)))
    verdict = detector.analyze_system(clocked)[0]
    print(f"clocked channel : periodicity={verdict.periodicity:.2f} "
          f"flagged={verdict.flagged}  "
          f"({plain.throughput_bps:,.0f} bit/s)")

    stealthy = System(cannon_lake_i3_8121u())
    jittered = IccThreadCovert(
        stealthy, ChannelConfig(slot_jitter_us=400.0)
    ).transfer(bytes(range(8)))
    verdict = detector.analyze_system(stealthy)[0]
    print(f"jittered channel: periodicity={verdict.periodicity:.2f} "
          f"flagged={verdict.flagged}  "
          f"({jittered.throughput_bps:,.0f} bit/s, BER "
          f"{jittered.ber:.3f})")
    print("-> detection forces the attacker to trade throughput for "
          "stealth; the hardware mitigations above remove the channel "
          "entirely.")


if __name__ == "__main__":
    main()
