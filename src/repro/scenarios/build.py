"""Materialise a :class:`~repro.scenarios.spec.ScenarioSpec` as a system.

``build_system`` is the single seam between the declarative layer and
the :mod:`repro.soc` substrate: it builds the processor from the
preset + overrides, applies the scenario's
:class:`~repro.soc.system.SystemOptions`, attaches the fault suite,
spawns every background workload trace on its pinned hardware thread,
and arms OS noise on the tenant threads.  Channels themselves are
constructed by :mod:`repro.scenarios.run`, which owns slot scheduling.
"""

from __future__ import annotations

from typing import List

from repro.faults import parse_fault_spec
from repro.scenarios.spec import ScenarioSpec
from repro.soc.noise import attach_system_noise, attach_trace
from repro.soc.system import System
from repro.units import ms_to_ns


def tenant_thread_ids(spec: ScenarioSpec, system: System) -> List[int]:
    """The hardware-thread ids every tenant occupies, in tenant order."""
    thread_ids: List[int] = []
    for tenant in spec.tenants:
        for core, smt_slot in tenant.hardware_threads():
            thread_ids.append(system.thread_on(core, smt_slot))
    return thread_ids


def build_system(spec: ScenarioSpec) -> System:
    """Build the fully furnished system one scenario describes.

    The returned system has the scenario's faults attached, its
    background workloads spawned, and OS noise armed on the tenant
    threads — everything except the covert channels, which the run
    layer constructs so it can own calibration and slot scheduling.
    """
    config = spec.processor_config()
    system = System(config, options=spec.options)
    if spec.faults:
        parse_fault_spec(spec.faults).attach(system)
    for workload in spec.background:
        attach_trace(system,
                     system.thread_on(workload.core, workload.smt_slot),
                     workload.build_trace(config.max_vector_bits))
    if spec.noise is not None:
        attach_system_noise(system, tenant_thread_ids(spec, system),
                            spec.noise.config(),
                            horizon_ns=ms_to_ns(spec.noise.horizon_ms),
                            seed=spec.noise.seed)
    return system
