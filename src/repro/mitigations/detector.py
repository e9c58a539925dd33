"""Defender-side detection of covert-channel throttle patterns.

The mitigations of Section 7 change the hardware; a software defender on
*today's* hardware can still watch for the channels' signature: IChannels
transactions throttle the core at a metronomic slot period (the sender
must respect the reset-time, so episodes arrive every ~0.7 ms with very
low jitter), while organic workloads throttle irregularly whenever their
phase structure happens to cross a guardband boundary.

:class:`ThrottleAnomalyDetector` consumes the per-core throttle traces
the simulator records (a real deployment would use the frontend-stall
PMCs of Figure 11) and flags cores whose throttle-episode intervals are
too regular for too long.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigError
from repro.measure.trace import StepTrace
from repro.soc.system import System


@dataclass(frozen=True)
class DetectionReport:
    """Verdict for one core's throttle activity."""

    core: int
    episodes: int
    mean_interval_ns: float
    interval_cv: float
    periodicity: float
    flagged: bool

    @property
    def episode_rate_hz(self) -> float:
        """Throttle episodes per second."""
        if self.mean_interval_ns <= 0:
            return 0.0
        return 1e9 / self.mean_interval_ns


class ThrottleAnomalyDetector:
    """Flags clocked throttle-episode trains.

    The channel's signature is *periodicity*, not constant spacing: a
    transaction throttles the core more than once (the sender's ramp and
    the probe's), so the interval stream is multi-modal but repeats with
    the slot clock exactly.  The detector bins episode starts and scores
    the autocorrelation of the binned train; covert slots produce a
    near-1 peak at the slot lag, organic workloads stay low.

    Parameters
    ----------
    min_episodes:
        Minimum throttle episodes before a verdict is attempted; fewer
        episodes stay unflagged (not enough evidence).
    periodicity_threshold:
        Autocorrelation peak above which the train counts as clocked.
    bin_ns:
        Time bin for the autocorrelation (should be well below the slot
        period and above the intra-slot episode spacing jitter).
    """

    def __init__(self, min_episodes: int = 6,
                 periodicity_threshold: float = 0.5,
                 bin_ns: float = 50_000.0) -> None:
        if min_episodes < 3:
            raise ConfigError("need at least 3 episodes for intervals")
        if not 0.0 < periodicity_threshold <= 1.0:
            raise ConfigError("periodicity threshold must be in (0, 1]")
        if bin_ns <= 0:
            raise ConfigError("bin width must be positive")
        self.min_episodes = min_episodes
        self.periodicity_threshold = periodicity_threshold
        self.bin_ns = bin_ns

    def periodicity_score(self, starts: List[float], t0_ns: float,
                          t1_ns: float) -> float:
        """Peak normalised autocorrelation of the binned episode train."""
        if len(starts) < 3:
            return 0.0
        import numpy as np

        n_bins = max(8, int((t1_ns - t0_ns) / self.bin_ns) + 1)
        train = np.zeros(n_bins)
        for start in starts:
            idx = int((start - t0_ns) / self.bin_ns)
            if 0 <= idx < n_bins:
                train[idx] += 1.0
        train = train - train.mean()
        ac = np.correlate(train, train, mode="full")[n_bins - 1:]
        if ac[0] <= 0:
            return 0.0
        ac = ac / ac[0]
        # Skip the zero-lag neighbourhood; look within half the window.
        lo = 2
        hi = max(lo + 1, n_bins // 2)
        return float(np.max(ac[lo:hi]))

    def episode_starts(self, trace: StepTrace, t0_ns: float,
                       t1_ns: float) -> List[float]:
        """Rising edges of a 0/1 throttle trace within [t0, t1]."""
        starts = []
        previous = trace.value_at(t0_ns, default=0)
        for t, value in trace.changes_in(t0_ns, t1_ns):
            if value and not previous:
                starts.append(t)
            previous = value
        return starts

    def analyze_trace(self, core: int, trace: StepTrace, t0_ns: float,
                      t1_ns: float) -> DetectionReport:
        """Verdict for one throttle trace over a window."""
        if t1_ns <= t0_ns:
            raise ConfigError(f"empty window [{t0_ns}, {t1_ns}]")
        starts = self.episode_starts(trace, t0_ns, t1_ns)
        if len(starts) < self.min_episodes:
            return DetectionReport(core, len(starts), 0.0, float("inf"),
                                   periodicity=0.0, flagged=False)
        import numpy as np

        intervals = np.diff(np.asarray(starts))
        mean = float(np.mean(intervals))
        cv = float(np.std(intervals) / mean) if mean > 0 else float("inf")
        score = self.periodicity_score(starts, t0_ns, t1_ns)
        return DetectionReport(
            core=core,
            episodes=len(starts),
            mean_interval_ns=mean,
            interval_cv=cv,
            periodicity=score,
            flagged=score >= self.periodicity_threshold,
        )

    def analyze_system(self, system: System, t0_ns: float = 0.0,
                       t1_ns: Optional[float] = None
                       ) -> List[DetectionReport]:
        """Per-core verdicts over a simulated system's recorded traces."""
        end = t1_ns if t1_ns is not None else system.now
        return [
            self.analyze_trace(core, system.throttle_traces[core], t0_ns, end)
            for core in range(system.config.n_cores)
        ]

    def any_flagged(self, system: System) -> bool:
        """Whether any core shows a covert-channel-like pattern."""
        return any(report.flagged for report in self.analyze_system(system))
