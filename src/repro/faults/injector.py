"""The :class:`FaultInjector`: a composed suite of fault models.

An injector owns any number of :class:`~repro.faults.base.FaultModel`
instances and attaches them all to a system in one call::

    from repro import System, cannon_lake_i3_8121u
    from repro.faults import FaultInjector, default_fault_suite

    system = System(cannon_lake_i3_8121u())
    injector = FaultInjector(default_fault_suite(intensity=1.0))
    injector.attach(system)
    # every channel/session built on `system` now runs under fault

After :meth:`attach`, the injector is reachable as ``system.faults`` and
the lower layers consult it duck-typed: :class:`~repro.measure.daq.DAQCard`
calls :meth:`perturb_samples`, :class:`~repro.core.channel.CovertChannel`
calls :meth:`perturb_schedule` and :meth:`extra_slot_slack_ns`.  An
injector is bound to at most one system — fault processes hold engine
state — but a fresh injector is cheap (:func:`repro.faults.spec.parse_fault_spec`
builds one from a string, which is also the picklable currency sweeps
ship to worker processes).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List

from repro.errors import ConfigError
from repro.faults.base import FaultModel
from repro.core.sync import SlotSchedule
from repro.obs.tracer import current as _obs

if TYPE_CHECKING:  # pragma: no cover - types only
    import numpy as np

    from repro.measure.daq import DAQCard
    from repro.soc.system import System


class FaultInjector:
    """Attaches a composed suite of fault models to one system."""

    def __init__(self, models: Iterable[FaultModel]) -> None:
        self.models: List[FaultModel] = list(models)
        for model in self.models:
            if not isinstance(model, FaultModel):
                raise ConfigError(f"not a FaultModel: {model!r}")
        self.system: "System | None" = None

    # -- wiring ---------------------------------------------------------------

    def attach(self, system: "System") -> "FaultInjector":
        """Install every model on ``system`` and register as ``system.faults``.

        Returns ``self`` so construction and attachment chain.
        """
        if self.system is not None:
            raise ConfigError(
                "this injector is already attached to a system; build a "
                "fresh one (fault processes hold engine state)"
            )
        if getattr(system, "faults", None) is not None:
            raise ConfigError("system already has a fault injector attached")
        self.system = system
        system.faults = self
        tracer = _obs()
        for model in self.models:
            model.attach(system, self)
            if tracer.enabled:
                tracer.instant(f"fault.attach {model.name}", "faults",
                               system.now, track="faults",
                               args={"spec": model.describe()})
        if tracer.enabled:
            tracer.metrics.counter("faults.models_attached").inc(
                len(self.models))
        return self

    def attach_daq(self, daq: "DAQCard") -> "DAQCard":
        """Route ``daq``'s sampled series through the measurement models."""
        daq.faults = self
        return daq

    # -- seam callbacks (duck-typed from lower layers) --------------------------

    def perturb_samples(self, name: str, times: np.ndarray,
                        values: np.ndarray) -> np.ndarray:
        """Corrupt one sampled series through every measurement model."""
        for model in self.models:
            if model.perturbs_measurements:
                values = model.perturb_samples(name, times, values)
        return values

    def perturb_schedule(self, schedule: SlotSchedule,
                         party: str) -> SlotSchedule:
        """One party's (possibly delayed) view of a shared schedule."""
        for model in self.models:
            if model.perturbs_schedule:
                schedule = model.perturb_schedule(schedule, party)
        return schedule

    def extra_slot_slack_ns(self) -> float:
        """Worst-case extra slot time scheduling faults can consume.

        Channels add this to their run deadline so a delayed final probe
        still lands inside the simulated window instead of raising a
        spurious :class:`~repro.errors.ProtocolError`.
        """
        return sum(model.max_delay_ns for model in self.models
                   if model.perturbs_schedule)

    # -- reporting ---------------------------------------------------------------

    def describe(self) -> str:
        """Spec-string form of the whole suite (parseable round trip)."""
        return ";".join(model.describe() for model in self.models)

    def event_counts(self) -> Dict[str, int]:
        """Perturbation events applied so far, summed per model name."""
        counts: Dict[str, int] = {}
        for model in self.models:
            counts[model.name] = counts.get(model.name, 0) + model.events
        return counts

    def __repr__(self) -> str:
        """Debug form listing the attached models."""
        state = "attached" if self.system is not None else "detached"
        return f"<FaultInjector {state} [{self.describe()}]>"
