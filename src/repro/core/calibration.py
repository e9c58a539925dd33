"""Receiver calibration: learning the TP decision thresholds.

The receiver decodes each transaction by comparing its measured probe
time against per-level thresholds (Figure 3's nested ``if TP in
RANGE_Lx`` ladder; Figure 13 shows the four level clusters with
>2 K-cycle gaps).  In the paper the ranges are learnt by sending known
training symbols first; :class:`Calibrator` does the same — it takes
(symbol, measurement) training pairs, fits per-symbol clusters, and
places decision thresholds at the midpoints between adjacent cluster
medians.

The calibrator is agnostic to the *direction* of the mapping: on the
same-thread channel a higher sender level yields a *shorter* probe time,
across SMT/cores a *longer* one.  Sorting clusters by median handles both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import CalibrationError


@dataclass(frozen=True)
class LevelStats:
    """Training statistics of one symbol's measurement cluster.

    The ``center`` is the cluster *median*: a single interrupt landing in
    one training transaction inflates that sample by microseconds, and a
    median survives such outliers where a mean does not (the receiver-
    side averaging strategy of Section 6.3).
    """

    symbol: int
    count: int
    center: float
    minimum: float
    maximum: float


class Calibrator:
    """Threshold decoder fit on labelled training measurements."""

    def __init__(self, training: Sequence[Tuple[int, float]],
                 min_gap: float = 0.0) -> None:
        """Fit thresholds from (symbol, measurement) pairs.

        Parameters
        ----------
        training:
            Labelled training measurements; every symbol that should be
            decodable must appear at least once.
        min_gap:
            Minimum required distance between adjacent cluster medians
            (finite); a smaller separation raises :class:`CalibrationError`
            (channel unusable, e.g. under a mitigation).
        """
        if not training:
            raise CalibrationError("no training measurements")
        if not math.isfinite(min_gap):
            raise CalibrationError(f"min_gap must be finite, got {min_gap}")
        by_symbol: Dict[int, List[float]] = {}
        for symbol, value in training:
            value = float(value)
            if not math.isfinite(value):
                raise CalibrationError(
                    f"symbol {symbol}: non-finite training measurement {value}")
            by_symbol.setdefault(symbol, []).append(value)
        self._stats: Dict[int, LevelStats] = {}
        for symbol, values in by_symbol.items():
            # Plain Python: the median and extremes equal numpy's exactly.
            ordered, n = sorted(values), len(values)
            mid = n // 2
            self._stats[symbol] = LevelStats(
                symbol=symbol,
                count=n,
                center=ordered[mid] if n % 2 else
                (ordered[mid - 1] + ordered[mid]) / 2,
                minimum=ordered[0],
                maximum=ordered[-1],
            )
        # Order clusters by center; thresholds are midpoints of neighbours.
        self._ordered = sorted(self._stats.values(), key=lambda s: s.center)
        for a, b in zip(self._ordered, self._ordered[1:]):
            if b.center - a.center < min_gap:
                raise CalibrationError(
                    f"levels {a.symbol} and {b.symbol} separated by only "
                    f"{b.center - a.center:.1f} (< {min_gap}); channel unusable"
                )
        self._thresholds = [
            (a.center + b.center) / 2.0
            for a, b in zip(self._ordered, self._ordered[1:])
        ]

    @property
    def stats(self) -> Dict[int, LevelStats]:
        """Per-symbol training statistics."""
        return dict(self._stats)

    @property
    def thresholds(self) -> List[float]:
        """Decision thresholds between median-ordered clusters."""
        return list(self._thresholds)

    def separations(self) -> List[Tuple[int, int, float]]:
        """(symbol_a, symbol_b, gap) between adjacent cluster extremes.

        The gap is ``min(b) - max(a)`` for median-adjacent clusters;
        positive everywhere means the training clusters never overlap —
        the Figure 13 condition for a near-zero error rate.
        """
        return [
            (a.symbol, b.symbol, b.minimum - a.maximum)
            for a, b in zip(self._ordered, self._ordered[1:])
        ]

    def decode(self, measurement: float) -> int:
        """Symbol whose cluster the measurement falls into."""
        idx = 0
        for threshold in self._thresholds:
            if measurement >= threshold:
                idx += 1
            else:
                break
        return self._ordered[idx].symbol

    def decode_all(self, measurements: Sequence[float]) -> List[int]:
        """Vector :meth:`decode`."""
        return [self.decode(m) for m in measurements]

    # -- decision-directed tracking ---------------------------------------

    def track(self, symbol: int, measurement: float,
              alpha: float = 0.15) -> None:
        """Nudge ``symbol``'s cluster center toward a decoded reading.

        Decision-directed adaptation: after decoding a symbol, fold the
        measurement into its cluster with EWMA weight ``alpha`` and
        refresh the thresholds.  Keeps the decoder locked when the
        operating point drifts slowly (e.g. a governor frequency change
        rescales every throttling period); a reading further than the
        distance to the nearest neighbouring cluster is ignored as an
        outlier rather than dragged in.
        """
        if not 0.0 < alpha <= 1.0:
            raise CalibrationError(f"alpha must be in (0, 1], got {alpha}")
        stats = self._stats.get(symbol)
        if stats is None:
            raise CalibrationError(f"symbol {symbol} was never trained")
        neighbour_gap = min(
            (abs(other.center - stats.center)
             for other in self._stats.values() if other.symbol != symbol),
            default=float("inf"),
        )
        if not abs(measurement - stats.center) <= neighbour_gap:
            return  # outlier or NaN: do not let one interrupt drag the cluster
        new_center = (1.0 - alpha) * stats.center + alpha * measurement
        self._stats[symbol] = LevelStats(
            symbol=stats.symbol,
            count=stats.count + 1,
            center=new_center,
            minimum=min(stats.minimum, measurement),
            maximum=max(stats.maximum, measurement),
        )
        self._ordered = sorted(self._stats.values(), key=lambda s: s.center)
        self._thresholds = [
            (a.center + b.center) / 2.0
            for a, b in zip(self._ordered, self._ordered[1:])
        ]

    def decode_all_tracking(self, measurements: Sequence[float],
                            alpha: float = 0.15) -> List[int]:
        """Decode a stream while adapting cluster centers as it goes."""
        decoded = []
        for measurement in measurements:
            symbol = self.decode(measurement)
            decoded.append(symbol)
            self.track(symbol, measurement, alpha)
        return decoded
