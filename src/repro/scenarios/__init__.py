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

from repro import lazy_exports

#: Every export resolves on first use: name -> defining submodule.  A
#: caller that runs scenarios (the mitigation matrix) then loads no
#: docs generator.
_LAZY = {
    "build_system": "build",
    "tenant_thread_ids": "build",
    "check_docs": "docsgen",
    "registry_markdown": "docsgen",
    "render_docs": "docsgen",
    "all_specs": "registry",
    "get_spec": "registry",
    "interference_spec": "registry",
    "register": "registry",
    "scenario_names": "registry",
    "InterferencePoint": "run",
    "InterferenceSweepResult": "run",
    "ScenarioRun": "run",
    "TenantResult": "run",
    "interference_sweep": "run",
    "make_channel": "run",
    "run_document": "run",
    "run_scenario": "run",
    "CHANNEL_KINDS": "spec",
    "NoiseSpec": "spec",
    "OVERRIDABLE_FIELDS": "spec",
    "ScenarioSpec": "spec",
    "TenantSpec": "spec",
    "WORKLOAD_KINDS": "spec",
    "WorkloadSpec": "spec",
}
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)

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
