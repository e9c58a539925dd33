"""Resilience — BER/goodput vs fault intensity, per mitigation stack.

Beyond-paper experiment over the :mod:`repro.faults` default suite
(rail jitter, sample dropout, grant-queue interference, thermal drift,
receiver clock skew, slot-schedule jitter).  The claim demonstrated:

* with faults off, every stack delivers and the bare channel is the
  fastest — the adaptive machinery costs nothing when unused;
* at the default suite's nominal intensity (1.0) the adaptive session
  (windowed-BER re-calibration, exponential backoff, two-level
  degradation) keeps residual BER <= 1e-2 where plain ARQ exceeds 1e-1
  -- judged over seeds 1-10 by the ``resilience.*`` claims of
  :mod:`repro.analysis.claims`, outside the timed sweep;
* past nominal intensity the adaptive session degrades to two-level
  robust signalling and keeps delivering.
"""

from conftest import banner, runner_from_env

from repro.analysis.claims import CLAIMS
from repro.analysis.experiments import resilience_sweep
from repro.analysis.figures import ascii_bars
from repro.analysis.report import PaperResults


def test_bench_resilience(benchmark):
    result = benchmark.pedantic(
        resilience_sweep,
        kwargs={"runner": runner_from_env(), "trials": 2},
        rounds=1, iterations=1)

    for mitigation in result.mitigations:
        banner(f"Residual BER vs fault intensity — {mitigation}")
        rows = [(f"x={p.intensity:3.1f}  good={p.goodput_bps:7.1f} b/s  "
                 f"att={p.attempts:4.1f} recal={p.recalibrations:3.1f} "
                 f"degr={p.degraded_fraction:3.1f}", p.residual_ber)
                for p in result.points
                if p.channel == "cores" and p.mitigation == mitigation]
        print(ascii_bars(rows))

    clean_arq = result.cell("cores", 0.0, "arq")
    clean_adaptive = result.cell("cores", 0.0, "adaptive")
    faulty_arq = result.cell("cores", 1.0, "arq")
    faulty_adaptive = result.cell("cores", 1.0, "adaptive")

    benchmark.extra_info["arq_residual_at_1"] = round(
        faulty_arq.residual_ber, 4)
    benchmark.extra_info["adaptive_residual_at_1"] = round(
        faulty_adaptive.residual_ber, 4)
    benchmark.extra_info["adaptive_recal_at_1"] = round(
        faulty_adaptive.recalibrations, 2)

    # Faults off: both session stacks deliver, nothing degrades.
    assert clean_arq.delivered_fraction == 1.0
    assert clean_adaptive.delivered_fraction == 1.0
    assert clean_adaptive.degraded_fraction == 0.0
    assert clean_adaptive.residual_ber == 0.0
    # Adaptation actually engaged (re-calibration and/or degradation).
    assert (faulty_adaptive.recalibrations > 0
            or faulty_adaptive.degraded_fraction > 0)
    # The acceptance criterion, over the seed spread rather than one seed.
    spread = PaperResults().resilience
    for claim in CLAIMS:
        if claim.experiment == "resilience":
            benchmark.extra_info[claim.key] = claim.measure(spread)
            problem = claim.violation(spread)
            assert problem is None, problem
