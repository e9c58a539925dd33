"""Declarative scenario library: specs, registry, builder, runner, docs.

The scenario layer turns every experiment topology in this repo into
plain data: a :class:`~repro.scenarios.spec.ScenarioSpec` composes the
processor preset (and overrides), the mitigation switches, OS noise,
fault suites, background workload traces (including replay of
recorded phase traces), and N covert sender/receiver tenants sharing
one PMU.  The registry ships 16 named scenarios from the paper's
single-pair baselines to 8-pair interference matrices; each runs
through ``python -m repro --scenario NAME``, the sweep runner and the
verify golden gates, and renders its own entry in docs/SCENARIOS.md.
"""

from repro.scenarios.build import build_system, tenant_thread_ids
from repro.scenarios.docsgen import (
    check_docs,
    registry_markdown,
    render_docs,
)
from repro.scenarios.registry import (
    all_specs,
    get_spec,
    interference_spec,
    register,
    scenario_names,
)
from repro.scenarios.run import (
    InterferencePoint,
    InterferenceSweepResult,
    ScenarioRun,
    TenantResult,
    interference_sweep,
    make_channel,
    run_document,
    run_scenario,
)
from repro.scenarios.spec import (
    CHANNEL_KINDS,
    NoiseSpec,
    OVERRIDABLE_FIELDS,
    ScenarioSpec,
    TenantSpec,
    WORKLOAD_KINDS,
    WorkloadSpec,
)

__all__ = [
    "CHANNEL_KINDS",
    "InterferencePoint",
    "InterferenceSweepResult",
    "NoiseSpec",
    "OVERRIDABLE_FIELDS",
    "ScenarioRun",
    "ScenarioSpec",
    "TenantResult",
    "TenantSpec",
    "WORKLOAD_KINDS",
    "WorkloadSpec",
    "all_specs",
    "build_system",
    "check_docs",
    "get_spec",
    "interference_spec",
    "interference_sweep",
    "make_channel",
    "register",
    "registry_markdown",
    "render_docs",
    "run_document",
    "run_scenario",
    "scenario_names",
    "tenant_thread_ids",
]
