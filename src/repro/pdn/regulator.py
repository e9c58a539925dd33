"""Voltage regulator models: MBVR, FIVR and LDO.

A :class:`VoltageRegulator` is a stateful rail.  The central PMU commands
it over a (simulated) SVID interface; each command incurs the SVID
round-trip latency and then the output slews linearly at the regulator's
slew rate until it reaches the target VID.

The three kinds mirror the paper:

* ``MBVR`` — motherboard VR (Coffee Lake, Cannon Lake): slow SVID slew;
  the dominant cause of the 12-15 us AVX2 throttling periods (Fig. 8a).
* ``FIVR`` — fully integrated VR (Haswell): faster slew, shorter
  throttling periods (~9 us, Fig. 8a footnote 10).
* ``LDO`` — per-core low-dropout regulator (AMD-style), the paper's
  mitigation: sub-0.5 us transitions (Section 7).

Output voltage over time is kept as piecewise-linear segments in flat
float columns so the simulated NI-DAQ (:mod:`repro.measure.daq`) can
sample the rail.
"""

from __future__ import annotations

import bisect
import enum
import math
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Tuple

from repro.errors import ConfigError, SimulationError, bounded, check_fields
from repro.obs.tracer import current as _obs
from repro.units import mv_to_v

if TYPE_CHECKING:
    import numpy as np


@enum.unique
class VRKind(enum.Enum):
    """The power-delivery style of a rail."""

    MBVR = "mbvr"
    FIVR = "fivr"
    LDO = "ldo"


@dataclass(frozen=True)
class VRSpec:
    """Electrical parameters of a voltage regulator.

    Parameters
    ----------
    kind:
        Regulator family (affects nothing directly; carried for reports).
    slew_mv_per_us:
        Output slew rate.  MBVR parts use the SVID 'slow' slew of
        ~1.25 mV/us; FIVR ~4 mV/us; LDO >= 100 mV/us.
    command_latency_ns:
        Fixed latency from the PMU issuing a VID command to the output
        starting to move (SVID serial transfer + controller response).
    vid_step_mv:
        VID quantisation step; targets are rounded *up* to a step so the
        load never lands below the requested voltage.
    vcc_max:
        Maximum operational voltage of the rail (Section 2, Fig. 2c).
    icc_max:
        Maximum current the VR is electrically designed for.  Exceeding
        it can damage the part, so the PMU throttles frequency first.
    """

    kind: VRKind
    slew_mv_per_us: float = bounded(gt=0)
    command_latency_ns: float = bounded(ge=0)
    vid_step_mv: float = bounded(gt=0)
    vcc_max: float = bounded(gt=0)
    icc_max: float = bounded(gt=0)

    def __post_init__(self) -> None:
        check_fields(self)
        # The VID step and slew in volts, converted once: every command
        # reads both.
        object.__setattr__(self, "_vid_step_v", mv_to_v(self.vid_step_mv))
        object.__setattr__(self, "_slew_v_per_us", mv_to_v(self.slew_mv_per_us))

    def quantize_vid(self, vcc: float) -> float:
        """Round ``vcc`` up to the next VID step."""
        step = self._vid_step_v
        return math.ceil(vcc / step - 1e-9) * step

    def transition_ns(self, v_from: float, v_to: float) -> float:
        """Wall time of a commanded transition between two voltages."""
        delta_mv = abs(v_to - v_from) * 1000.0
        slew_ns = delta_mv / self.slew_mv_per_us * 1000.0
        return self.command_latency_ns + slew_ns


def mbvr_spec(vcc_max: float, icc_max: float,
              slew_mv_per_us: float = 1.25,
              command_latency_ns: float = 1_500.0,
              vid_step_mv: float = 5.0) -> VRSpec:
    """Motherboard VR with SVID slow-slew defaults."""
    return VRSpec(VRKind.MBVR, slew_mv_per_us, command_latency_ns,
                  vid_step_mv, vcc_max, icc_max)


def fivr_spec(vcc_max: float, icc_max: float,
              slew_mv_per_us: float = 2.0,
              command_latency_ns: float = 300.0,
              vid_step_mv: float = 5.0) -> VRSpec:
    """Fully-integrated VR (Haswell) — faster than MBVR."""
    return VRSpec(VRKind.FIVR, slew_mv_per_us, command_latency_ns,
                  vid_step_mv, vcc_max, icc_max)


def ldo_spec(vcc_max: float, icc_max: float,
             slew_mv_per_us: float = 100.0,
             command_latency_ns: float = 50.0,
             vid_step_mv: float = 5.0) -> VRSpec:
    """Low-dropout per-core regulator: sub-0.5 us transitions (Section 7)."""
    return VRSpec(VRKind.LDO, slew_mv_per_us, command_latency_ns,
                  vid_step_mv, vcc_max, icc_max)


@dataclass
class VoltageRegulator:
    """A stateful rail driven by VID commands.

    The regulator records its full piecewise-linear voltage history so
    measurement code can sample the rail at arbitrary times.  Commands
    must be issued at non-decreasing simulation times; the central PMU is
    responsible for serialising transitions (it never issues a new
    command while one is in flight — that serialisation is the root cause
    of the Multi-Throttling-Cores side effect).
    """

    spec: VRSpec
    v_initial: float
    name: str = "vr"
    # Segment i runs from (_t_start[i], _v_start[i]) to (_t_end[i],
    # _v_end[i]); flat columns hold no per-segment objects for the GC.
    _t_start: array = field(default_factory=lambda: array("d"))
    _t_end: array = field(default_factory=lambda: array("d"))
    _v_start: array = field(default_factory=lambda: array("d"))
    _v_end: array = field(default_factory=lambda: array("d"))
    _busy_until: float = 0.0
    _last_command_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.v_initial <= 0:
            raise ConfigError(f"initial voltage must be positive, got {self.v_initial}")
        self._append_segment(0.0, 0.0, self.v_initial, self.v_initial)

    def _append_segment(self, t_start: float, t_end: float,
                        v_start: float, v_end: float) -> None:
        """Record one linear voltage segment of the output trace."""
        self._t_start.append(t_start)
        self._t_end.append(t_end)
        self._v_start.append(v_start)
        self._v_end.append(v_end)

    # -- queries -----------------------------------------------------------

    @property
    def busy_until(self) -> float:
        """Simulation time at which the in-flight transition settles."""
        return self._busy_until

    def is_busy(self, now_ns: float) -> bool:
        """True while a commanded transition has not settled yet."""
        return now_ns < self._busy_until

    def voltage_at(self, t_ns: float) -> float:
        """Output voltage at time ``t_ns`` (piecewise-linear history).

        Binary search over segment start times: the segment in force is
        the last one starting at or before ``t_ns`` (ties go to the most
        recently appended segment, as a reversed linear scan would).
        """
        idx = bisect.bisect_right(self._t_start, t_ns) - 1
        if idx < 0:
            return self._v_start[0]
        t_start = self._t_start[idx]
        t_end = self._t_end[idx]
        if t_end <= t_start:
            return self._v_end[idx]
        # Linear interpolation inside the segment, clamped at its ends.
        frac = (t_ns - t_start) / (t_end - t_start)
        if not frac > 0.0:
            frac = 0.0
        elif not frac < 1.0:
            frac = 1.0
        v_start = self._v_start[idx]
        return v_start + frac * (self._v_end[idx] - v_start)

    def settled_voltage(self) -> float:
        """The target of the most recent command (the eventual voltage)."""
        return self._v_end[-1]

    # -- commands ----------------------------------------------------------

    def command(self, now_ns: float, target_vcc: float) -> float:
        """Issue a VID command; returns the settle time (ns).

        The target is quantised up to the VID grid and clamped to
        ``vcc_max``.  Raises :class:`SimulationError` if issued while a
        previous transition is still in flight or if time runs backwards.
        """
        if now_ns < self._last_command_ns - 1e-6:
            raise SimulationError(
                f"VR command at t={now_ns} before previous command at "
                f"t={self._last_command_ns}"
            )
        if self.is_busy(now_ns):
            raise SimulationError(
                f"VR {self.name} commanded at t={now_ns} while busy until "
                f"t={self._busy_until}; the PMU must serialise transitions"
            )
        target = min(self.spec.quantize_vid(target_vcc), self.spec.vcc_max)
        v_now = self.voltage_at(now_ns)
        self._last_command_ns = now_ns
        tracer = _obs()
        if abs(target - v_now) < 1e-12:
            self._busy_until = now_ns
            if tracer.enabled:
                tracer.metrics.counter("vr.commands_noop").inc()
            return now_ns
        latency = self.spec.command_latency_ns
        slew_ns = abs(target - v_now) / self.spec._slew_v_per_us * 1_000.0
        start = now_ns + latency
        end = start + slew_ns
        self._append_segment(now_ns, start, v_now, v_now)
        self._append_segment(start, end, v_now, target)
        self._busy_until = end
        if tracer.enabled:
            tracer.metrics.counter("vr.commands").inc()
            tracer.metrics.histogram("vr.transition_ns").observe(end - now_ns)
            tracer.complete(
                "vr.transition", "pdn", now_ns, end - now_ns, track=self.name,
                args={"from_v": round(v_now, 6), "to_v": round(target, 6),
                      "delta_mv": round((target - v_now) * 1000.0, 3),
                      "up": target > v_now},
            )
        return end

    def force_level(self, vcc: float) -> None:
        """Reset the rail to a flat level (pre-simulation setup only).

        Used by secure mode to boot with the worst-case guardband already
        applied; not valid once commands have been issued.
        """
        if len(self._t_start) > 1 or self._busy_until > 0.0:
            raise SimulationError(
                f"rail {self.name} already has history; force_level is "
                f"setup-time only"
            )
        level = min(self.spec.quantize_vid(vcc), self.spec.vcc_max)
        # The one segment left is the flat (0, 0) start: relevel it.
        self._v_start[0] = self._v_end[0] = level
        self._busy_until = 0.0

    def history(self) -> List[Tuple[float, float]]:
        """(time, voltage) breakpoints of the full rail history."""
        points: List[Tuple[float, float]] = []
        for t0, t1, v0, v1 in zip(self._t_start, self._t_end,
                                  self._v_start, self._v_end):
            points.append((t0, v0))
            points.append((t1, v1))
        return points

    def breakpoints(self) -> Tuple[np.ndarray, np.ndarray]:
        """Deduplicated (times, voltages) arrays of the rail history.

        The export contract of :mod:`repro.measure.sampler`: times are
        non-decreasing, consecutive duplicate points are dropped, and
        linear interpolation between the points (clamped outside the
        span) reproduces :meth:`voltage_at` exactly — the rail output is
        continuous, so no jump encoding is needed.
        """
        import numpy as np

        times = np.column_stack((self._t_start, self._t_end)).ravel()
        volts = np.column_stack((self._v_start, self._v_end)).ravel()
        # A point equal to its raw predecessor equals the last kept one
        # too, so one vectorised comparison dedups the run.
        keep = np.ones(len(times), dtype=bool)
        keep[1:] = (times[1:] != times[:-1]) | (volts[1:] != volts[:-1])
        return times[keep], volts[keep]
