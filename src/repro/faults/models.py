"""The concrete fault models, one per simulation seam.

Every model perturbs exactly one well-defined seam:

===================  =========================================================
model                seam
===================  =========================================================
``rail-jitter``      DAQ sample values (:meth:`repro.measure.daq.DAQCard.sample`)
``dropout``          DAQ sample values (dropped samples hold their last value)
``grant-interference`` the central PMU's serialized grant queue
``thermal-drift``    the RC thermal model's ambient reference
``clock-skew``       the system TSC the receiver times probes with
``slot-jitter``      each party's view of the shared slot schedule
``state-flush``      the central PMU's grant state, on a scheduling quantum
===================  =========================================================

The first two corrupt *measurements* of the simulation; the middle two
perturb slow *environment* state; ``clock-skew`` and ``slot-jitter``
attack the channel's own *timing assumptions* and are the dominant BER
contributors the adaptive session (:mod:`repro.core.session`) has to
survive.  ``state-flush`` is different in spirit: it models a *defence*
(temporal partitioning of the current-management state, after the
RISC-V prevention literature) with the fault machinery, because a
defender that periodically perturbs PMU state is mechanically identical
to an attacker-facing noise source.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Generator, Iterator, List, Optional,
                    Tuple)

from repro.core.sync import PerturbedSchedule, SlotSchedule, fold_key, uniform
from repro.errors import ConfigError, bounded
from repro.faults.base import FaultModel
from repro.isa.instructions import IClass
from repro.microarch.tsc import DriftingTimestampCounter
from repro.pmu.thermal import AmbientRamp, expand_ramps
from repro.units import ms_to_ns, us_to_ns

if TYPE_CHECKING:  # pragma: no cover - types only
    import numpy as np

    from repro.faults.injector import FaultInjector
    from repro.soc.system import System


@dataclass(eq=False, kw_only=True)
class RailVoltageJitter(FaultModel):
    """Extra Gaussian noise on every DAQ-sampled rail series.

    Models supply ripple and probe pickup beyond the instrument's own
    noise floor: each :meth:`~repro.measure.daq.DAQCard.sample` call gets
    independent ``N(0, sigma_mv * intensity)`` millivolts added per
    sample.  Affects rail-trace detectors and figure pipelines, not the
    TSC-based channel receivers.
    """

    name = "rail-jitter"
    perturbs_measurements = True

    sigma_mv: float = bounded(2.0, ge=0)
    _calls: int = field(default=0, init=False, repr=False)

    def attach(self, system: "System", injector: "FaultInjector") -> None:
        """No event-driven state; sampling pulls from this model lazily."""

    def perturb_samples(self, name: str, times: np.ndarray,
                        values: np.ndarray) -> np.ndarray:
        """Add per-sample Gaussian jitter to one sampled series."""
        sigma = self.sigma_mv * 1e-3 * self.intensity
        if sigma <= 0 or len(values) == 0:
            return values
        self._calls += 1
        rng = self.rng(name, self._calls)
        self.events += len(values)
        return values + rng.normal(0.0, sigma, len(values))


@dataclass(eq=False, kw_only=True)
class SampleDropout(FaultModel):
    """Random DAQ samples replaced by the last good value.

    Models conversion glitches and bus stalls: each sample is dropped
    with probability ``probability * intensity``; a dropped sample
    repeats the previous sample (zero-order hold), as a real acquisition
    pipeline's stale buffer would.
    """

    name = "dropout"
    perturbs_measurements = True

    probability: float = bounded(0.01, ge=0, le=1)
    _calls: int = field(default=0, init=False, repr=False)

    def attach(self, system: "System", injector: "FaultInjector") -> None:
        """No event-driven state; sampling pulls from this model lazily."""

    def perturb_samples(self, name: str, times: np.ndarray,
                        values: np.ndarray) -> np.ndarray:
        """Drop samples (hold the previous value) at the configured rate."""
        import numpy as np

        p = min(1.0, self.probability * self.intensity)
        if p <= 0 or len(values) < 2:
            return values
        self._calls += 1
        rng = self.rng(name, self._calls)
        dropped = rng.random(len(values)) < p
        dropped[0] = False  # nothing earlier to hold
        if not dropped.any():
            return values
        self.events += int(dropped.sum())
        out = np.array(values, copy=True)
        # Zero-order hold: each dropped sample takes the most recent kept
        # value; np.maximum.accumulate over kept indices finds it in O(n).
        idx = np.arange(len(out))
        idx[dropped] = 0
        idx = np.maximum.accumulate(idx)
        return out[idx]


@dataclass(eq=False, kw_only=True)
class GrantQueueInterference(FaultModel):
    """A phantom co-runner issuing competing guardband transitions.

    Models the paper's dominant practical noise source (Section 6.3): a
    concurrent application whose PHIs enter the central PMU's serialized
    grant queue.  At Poisson times (``burst_rate_per_s * intensity``)
    the model raises a guardband request for a random channel-grade PHI
    class on ``core``, holds it for ``hold_us``, then releases it — each
    burst can delay the covert pair's own transitions and extend their
    throttling periods, exactly like a noisy neighbour.

    ``core`` defaults to the highest-numbered core, which on a two-core
    part is the receiver's core — the worst case for the channel.
    """

    name = "grant-interference"

    #: PHI classes the phantom co-runner draws from (clipped to the
    #: part's vector width at attach time).
    BURST_CLASSES = (IClass.HEAVY_128, IClass.LIGHT_256,
                     IClass.HEAVY_256, IClass.HEAVY_512)

    burst_rate_per_s: float = bounded(300.0, ge=0)
    hold_us: float = bounded(120.0, gt=0)
    horizon_ms: float = bounded(5000.0, gt=0)
    #: Last: ``describe()`` lists knobs in declaration order, and spec
    #: strings have always named ``core`` after the other knobs.
    core: Optional[int] = bounded(None, ge=0)

    def bursts(self, max_vector_bits: int) -> Iterator[Tuple[float, IClass]]:
        """Every burst's lead gap (ns) and PHI class, in arrival order.

        Burst ``k`` reads draws ``2k`` and ``2k + 1`` of the splitmix64
        counter-hash stream keyed on :meth:`seed_parts` ``("bursts")``:
        an exponential gap of mean ``1 / (burst_rate_per_s * intensity)``
        and a class uniform over the :attr:`BURST_CLASSES` no wider than
        ``max_vector_bits``.  A draw depends only on the seed and ``k``,
        so the sequence needs no system.
        """
        key = fold_key(self.seed_parts("bursts"))
        mean_gap_ns = 1e9 / (self.burst_rate_per_s * self.intensity)
        classes = [c for c in self.BURST_CLASSES
                   if c.width_bits <= max_vector_bits]
        for k in itertools.count():
            # 1 - u lies in (0, 1], so the log is finite.
            gap_ns = -mean_gap_ns * math.log1p(-uniform(key, 2 * k))
            yield gap_ns, classes[int(uniform(key, 2 * k + 1) * len(classes))]

    def _process(self, system: "System", core: int) -> Generator:
        """Raise and drop ``core``'s grant in bursts until the horizon."""
        bursts = self.bursts(system.config.max_vector_bits)
        horizon = ms_to_ns(self.horizon_ms)
        while system.now < horizon:
            gap_ns, iclass = next(bursts)
            yield system.sleep(gap_ns)
            if system.now >= horizon:
                break
            system.pmu.request_up(core, iclass)
            self.events += 1
            yield system.sleep(us_to_ns(self.hold_us))
            system.pmu.request_down(core, IClass.SCALAR_64)

    def attach(self, system: "System", injector: "FaultInjector") -> None:
        """Spawn the phantom co-runner process (bounded by the horizon)."""
        if self.intensity <= 0 or self.burst_rate_per_s <= 0:
            return
        core = self.core if self.core is not None else system.config.n_cores - 1
        if core >= system.config.n_cores:
            raise ConfigError(f"no such core for interference: {core}")
        system.spawn(self._process(system, core),
                     name=f"fault_grant_interference_c{core}")


@dataclass(eq=False, kw_only=True)
class ThermalDriftRamp(FaultModel):
    """A slowly warming enclosure drifting the ambient reference.

    Ramps the thermal model's ambient offset (through
    :meth:`~repro.soc.system.System.declare_ambient_ramp`) at
    ``rate_c_per_s * intensity`` until ``max_drift_c`` is reached,
    stepping every ``step_us``.  The junction temperature trace shifts
    accordingly; current-management throttling does **not** (the paper's
    Key Conclusion 2 — the throttles under study are current-driven, not
    thermal), so this model perturbs the observability plane only and
    lets experiments prove that negative under drift.  The ramp is a
    declaration: it adds no engine event, and :attr:`events` counts the
    steps due so far.
    """

    name = "thermal-drift"

    rate_c_per_s: float = bounded(2.0, ge=0)
    max_drift_c: float = bounded(10.0, ge=0)
    step_us: float = bounded(500.0, gt=0)
    #: (system, ramp) of every declared ramp; the system is ``Any``
    #: because ``System`` is a type-checking-only import here.
    _ramps: List[Tuple[Any, AmbientRamp]] = field(
        default_factory=list, init=False, repr=False)

    @property
    def events(self) -> int:
        """Ramp steps taken so far on every system the model drives."""
        return sum(len(expand_ramps([ramp], system.now))
                   for system, ramp in self._ramps)

    def attach(self, system: "System", injector: "FaultInjector") -> None:
        """Declare the ramp on ``system`` (it ends at ``max_drift_c``)."""
        if self.intensity <= 0 or self.rate_c_per_s <= 0 or self.max_drift_c <= 0:
            return
        rate = self.rate_c_per_s * self.intensity
        ramp = system.declare_ambient_ramp(
            us_to_ns(self.step_us), rate * self.step_us * 1e-6,
            self.max_drift_c)
        self._ramps.append((system, ramp))


@dataclass(eq=False, kw_only=True)
class ReceiverClockSkew(FaultModel):
    """TSC frequency error growing over the run.

    Replaces the system's invariant TSC with a
    :class:`~repro.microarch.tsc.DriftingTimestampCounter`: measured
    probe intervals stretch by ``skew_ppm`` parts per million plus
    ``drift_ppm_per_s`` more each second (both scaled by intensity).
    Calibrated decode thresholds therefore go stale mid-transfer — the
    fault the adaptive session's drift re-calibration exists to fix.
    """

    name = "clock-skew"

    skew_ppm: float = 200.0
    drift_ppm_per_s: float = 2000.0

    def attach(self, system: "System", injector: "FaultInjector") -> None:
        """Swap the system TSC for a drifting one."""
        if self.intensity <= 0:
            return
        system.tsc = DriftingTimestampCounter(
            tsc_ghz=system.tsc.tsc_ghz,
            skew=self.skew_ppm * 1e-6 * self.intensity,
            drift_per_s=self.drift_ppm_per_s * 1e-6 * self.intensity,
        )
        self.events += 1


@dataclass(eq=False, kw_only=True)
class SlotScheduleJitter(FaultModel):
    """OS wake-up latency desynchronising the two parties.

    Wraps each party's view of the shared slot schedule in a
    :class:`~repro.core.sync.PerturbedSchedule` with a party-specific
    salt: sender and receiver each enter slot ``i`` late by independent
    half-normal delays (``sigma_us * intensity``, capped at ``cap_us``).
    Misaligned entries let the receiver probe before the sender's
    transition, or let a late sender encroach on the reset-time — the
    symbol-smearing errors real schedulers inflict on the attack.
    """

    name = "slot-jitter"
    perturbs_schedule = True

    sigma_us: float = bounded(1.5, ge=0)
    cap_us: float = bounded(10.0, ge=0)

    def attach(self, system: "System", injector: "FaultInjector") -> None:
        """No event-driven state; channels pull perturbed schedules lazily."""

    @property
    def max_delay_ns(self) -> float:
        """Worst-case per-slot delay, for slot-slack budgeting."""
        return us_to_ns(self.cap_us) if self.intensity > 0 else 0.0

    def perturb_schedule(self, schedule: SlotSchedule,
                         party: str) -> SlotSchedule:
        """One party's delayed view of ``schedule``."""
        sigma_ns = us_to_ns(self.sigma_us * self.intensity)
        if sigma_ns <= 0:
            return schedule
        self.events += 1
        salt = self.seed_parts(party, int(schedule.epoch_ns))
        return PerturbedSchedule.wrap(schedule, sigma_ns=sigma_ns,
                                      cap_ns=us_to_ns(self.cap_us), salt=salt)


@dataclass(eq=False, kw_only=True)
class StateFlush(FaultModel):
    """Temporal partitioning: periodic worst-case state flushes.

    Models the prevention approach from the RISC-V current-management
    literature: on every scheduling quantum the OS (or firmware) flushes
    the PMU's per-core current-management state by raising *every*
    core's guardband to the part's worst-case PHI class, holding it for
    ``hold_us``, then releasing it.  Each flush drags the shared rail
    through a full transition cycle and throttles every waiting core,
    so an attacker's carefully phased transitions are periodically
    overwritten by defender-controlled ones — the covert timing signal
    is partitioned into quanta the receiver cannot correlate across.

    Unlike the other models this one is a *defender* recipe (the
    ``state_flush`` row of the mitigation matrix); it is registered as
    a fault because periodic PMU-state perturbation is mechanically a
    noise source, but it is deliberately **not** part of the
    ``default`` fault suite.

    The flush cadence is deterministic (quantum boundaries, not Poisson
    arrivals): real temporal partitioning is clock-driven, and a fixed
    cadence is also the defender's best case, since the attacker cannot
    hide between irregular gaps.
    """

    name = "state-flush"

    quantum_us: float = bounded(900.0, gt=0)
    hold_us: float = bounded(60.0, gt=0)
    horizon_ms: float = bounded(5000.0, gt=0)

    def _worst_class(self, system: "System") -> IClass:
        """The heaviest PHI class the part executes (the flush level)."""
        return max(c for c in IClass
                   if c.width_bits <= system.config.max_vector_bits)

    def _process(self, system: "System") -> Generator:
        """Raise every core to the worst class once per quantum."""
        flush_class = self._worst_class(system)
        cores = range(system.config.n_cores)
        horizon = ms_to_ns(self.horizon_ms)
        # Intensity shortens the quantum: twice the intensity flushes
        # twice as often (the partitioning gets finer-grained).
        quantum_ns = us_to_ns(self.quantum_us) / self.intensity
        while system.now < horizon:
            yield system.sleep(quantum_ns)
            if system.now >= horizon:
                break
            for core in cores:
                system.pmu.request_up(core, flush_class)
            self.events += 1
            yield system.sleep(us_to_ns(self.hold_us))
            for core in cores:
                system.pmu.request_down(core, IClass.SCALAR_64)

    def attach(self, system: "System", injector: "FaultInjector") -> None:
        """Spawn the quantum-boundary flush process (horizon-bounded)."""
        if self.intensity <= 0:
            return
        system.spawn(self._process(system), name="fault_state_flush")
