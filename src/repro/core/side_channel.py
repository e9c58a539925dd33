"""Side-channel variant: inferring a victim's instruction classes.

Section 6.5: the same throttling side effects that carry the covert
channels also leak *what kind* of instructions an unwitting victim
executes.  A spy on the sibling SMT thread (Multi-Throttling-SMT) or on
another core (Multi-Throttling-Cores) times its own loop while the victim
runs, then classifies the measured stretching against thresholds
calibrated from known classes.

This is the paper's synthetic proof-of-concept: it recovers the victim's
instruction-class sequence (64-bit scalar vs 128/256/512-bit vector),
not application secrets — turning that leak into key material is left to
future work in the paper as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence

from repro.core.calibration import Calibrator
from repro.core.levels import ChannelLocation, probe_class_for
from repro.core.sync import SlotSchedule
from repro.errors import ConfigError
from repro.isa.instructions import IClass
from repro.isa.workload import Loop
from repro.soc.system import System
from repro.units import us_to_ns


@dataclass
class SpyReport:
    """Outcome of one spying session."""

    victim_classes: List[IClass]
    inferred_classes: List[IClass]
    measurements_tsc: List[float]

    @property
    def accuracy(self) -> float:
        """Fraction of victim phases classified correctly."""
        if not self.victim_classes:
            return 0.0
        hits = sum(
            1 for a, b in zip(self.victim_classes, self.inferred_classes)
            if a == b
        )
        return hits / len(self.victim_classes)


@dataclass
class KeyDependentVictim:
    """A victim whose instruction mix depends on secret bits.

    Models the classic data-dependent-code-path leak, restated in the
    paper's terms: a library that takes a vectorised (AVX2) path when a
    key bit is 1 and a scalar path when it is 0 — e.g. a
    square-and-multiply loop with a SIMD multiply.  The paper leaves
    real-world extraction to future work; this synthetic victim shows
    the primitive suffices once such a code path exists.
    """

    one_class: IClass = IClass.HEAVY_256
    zero_class: IClass = IClass.SCALAR_64

    def __post_init__(self) -> None:
        if self.one_class == self.zero_class:
            raise ConfigError("the two key paths must use distinct classes")

    def phases_for_key(self, key_bits: Sequence[int]) -> List[IClass]:
        """The class sequence the victim executes for ``key_bits``."""
        if any(bit not in (0, 1) for bit in key_bits):
            raise ConfigError("key bits must be 0 or 1")
        if not key_bits:
            raise ConfigError("key must have at least one bit")
        return [self.one_class if bit else self.zero_class
                for bit in key_bits]

    def recover_key(self, inferred: Sequence[IClass]) -> List[int]:
        """Map a spy's inferred classes back to key bits.

        Classification noise may produce classes other than the two key
        paths; those resolve to whichever path is closer in intensity.
        """
        midpoint = (self.one_class.cdyn_nf + self.zero_class.cdyn_nf) / 2.0
        if self.one_class.cdyn_nf > self.zero_class.cdyn_nf:
            return [1 if c.cdyn_nf > midpoint else 0 for c in inferred]
        return [0 if c.cdyn_nf > midpoint else 1 for c in inferred]


class InstructionClassSpy:
    """Infers the instruction classes a victim core/thread executes."""

    def __init__(self, system: System, location: ChannelLocation,
                 victim_core: int = 0, spy_core: int = 1,
                 slot_us: float = 750.0, probe_iterations: int = 60,
                 victim_iterations: int = 30) -> None:
        if location == ChannelLocation.SAME_THREAD:
            raise ConfigError(
                "the side-channel spy observes *another* context; use "
                "ACROSS_SMT or ACROSS_CORES"
            )
        self.system = system
        self.location = location
        self.slot_ns = us_to_ns(slot_us)
        self.probe_iterations = probe_iterations
        self.victim_iterations = victim_iterations
        if location == ChannelLocation.ACROSS_SMT:
            if not system.config.supports_smt:
                raise ConfigError(f"{system.config.codename} has no SMT")
            self.victim_thread = system.thread_on(victim_core, 0)
            self.spy_thread = system.thread_on(victim_core, 1)
        else:
            if system.config.n_cores < 2:
                raise ConfigError("cross-core spying needs two cores")
            if victim_core == spy_core:
                raise ConfigError("victim and spy must use different cores")
            self.victim_thread = system.thread_on(victim_core, 0)
            self.spy_thread = system.thread_on(spy_core, 0)
        self.probe_class = probe_class_for(location, system.config.max_vector_bits)
        self._calibrator: Optional[Calibrator] = None
        self._class_by_id: dict = {}

    def _observable_classes(self) -> List[IClass]:
        """The classes this part can execute."""
        limit = self.system.config.max_vector_bits
        return [c for c in IClass if c.width_bits <= limit]

    def _victim_program(self, schedule: SlotSchedule,
                        classes: Sequence[IClass]) -> Generator:
        """Run the victim's classes, one per slot."""
        system = self.system
        for i, iclass in enumerate(classes):
            yield system.until(schedule.slot_start(i))
            yield system.execute(
                self.victim_thread, Loop(iclass, self.victim_iterations),
            )
        return None

    def _spy_program(self, schedule: SlotSchedule, n_slots: int,
                     measurements: List[Optional[float]]) -> Generator:
        """Probe each slot and record its TSC duration."""
        system = self.system
        offset = 200.0 if self.location == ChannelLocation.ACROSS_CORES else 0.0
        for i in range(n_slots):
            yield system.until(schedule.slot_start(i) + offset)
            result = yield system.execute(
                self.spy_thread, Loop(self.probe_class, self.probe_iterations),
            )
            measurements[i] = float(result.elapsed_tsc)
        return None

    def _observe(self, classes: Sequence[IClass]) -> List[float]:
        """The spy's measurement for each victim class."""
        schedule = SlotSchedule(self.system.now + self.slot_ns, self.slot_ns)
        measurements: List[Optional[float]] = [None] * len(classes)
        self.system.spawn(self._victim_program(schedule, classes), name="victim")
        self.system.spawn(
            self._spy_program(schedule, len(classes), measurements), name="spy",
        )
        self.system.run_until(schedule.slot_start(len(classes)) + self.slot_ns)
        if any(m is None for m in measurements):
            raise ConfigError("spy produced no measurement for some slots")
        return [float(m) for m in measurements]

    def calibrate(self, rounds: int = 3) -> Calibrator:
        """Learn the per-class signatures by observing known victims."""
        observable = self._observable_classes()
        self._class_by_id = {int(c): c for c in observable}
        labels: List[int] = []
        for _ in range(rounds):
            labels.extend(int(c) for c in observable)
        readings = self._observe([self._class_by_id[lab] for lab in labels])
        self._calibrator = Calibrator(list(zip(labels, readings)))
        return self._calibrator

    def spy(self, victim_classes: Sequence[IClass]) -> SpyReport:
        """Observe a victim running the given class sequence."""
        if self._calibrator is None:
            self.calibrate()
        assert self._calibrator is not None
        for iclass in victim_classes:
            if iclass.width_bits > self.system.config.max_vector_bits:
                raise ConfigError(
                    f"victim cannot execute {iclass.label} on this part"
                )
        readings = self._observe(list(victim_classes))
        inferred = [
            self._class_by_id[self._calibrator.decode(value)]
            for value in readings
        ]
        return SpyReport(
            victim_classes=list(victim_classes),
            inferred_classes=inferred,
            measurements_tsc=readings,
        )

    def steal_key(self, victim: KeyDependentVictim,
                  key_bits: Sequence[int]) -> List[int]:
        """End-to-end: observe a key-dependent victim, return key bits."""
        report = self.spy(victim.phases_for_key(key_bits))
        return victim.recover_key(report.inferred_classes)
