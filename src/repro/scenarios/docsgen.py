"""Self-documenting registry: emit docs/SCENARIOS.md's reference block.

Every registered scenario renders its own reference entry — name,
description, topology table, and the command that runs it — between
the two HTML marker comments in docs/SCENARIOS.md.  The emitter is
deterministic (pure function of the registry), ``check_docs`` diffs
the committed file against a fresh render, and a test plus a CI step
run that check, so the registry and its documentation cannot drift.

CLI: ``python -m repro.scenarios docs [--check] [--path PATH]``.
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigError
from repro.scenarios.registry import all_specs
from repro.scenarios.spec import ScenarioSpec, options_to_mapping

#: Markers delimiting the generated block inside docs/SCENARIOS.md.
BEGIN_MARK = "<!-- scenario-registry:begin (generated; edit the registry, then run `python -m repro.scenarios docs`) -->"
END_MARK = "<!-- scenario-registry:end -->"

#: Default location of the scenario reference, relative to the repo root.
DEFAULT_DOCS_PATH = "docs/SCENARIOS.md"


def _tenant_line(spec: ScenarioSpec) -> str:
    """One-line human summary of the scenario's tenant placement."""
    parts = []
    for tenant in spec.tenants:
        if tenant.channel == "cores":
            where = f"cores {tenant.sender_core}→{tenant.receiver_core}"
        elif tenant.channel == "smt":
            where = f"core {tenant.sender_core} (SMT siblings)"
        else:
            where = f"core {tenant.sender_core} (one thread)"
        parts.append(f"{tenant.channel} on {where} "
                     f"@ +{tenant.offset_fraction:.2f} slot")
    return "; ".join(parts)


def _background_line(spec: ScenarioSpec) -> str:
    """One-line human summary of the background workloads."""
    if not spec.background:
        return "—"
    return "; ".join(
        f"{w.kind} on core {w.core}/smt {w.smt_slot}"
        + (f" ({len(w.phases)} recorded phases)" if w.kind == "replay"
           else f" ({w.duration_ms:g} ms, seed {w.seed})")
        for w in spec.background)


def _entry_markdown(spec: ScenarioSpec) -> str:
    """The reference entry of one scenario."""
    config = spec.processor_config()
    overrides = (", ".join(f"{k}={v}" for k, v in spec.overrides)
                 if spec.overrides else "—")
    protocol = (", ".join(f"{k}={v}" for k, v in spec.protocol)
                if spec.protocol else "—")
    mitigations = [f.replace("_", "-")
                   for f, enabled in options_to_mapping(spec.options).items()
                   if enabled]
    noise = ("—" if spec.noise is None else
             f"{spec.noise.config().total_event_rate_per_s:g} events/s "
             f"for {spec.noise.horizon_ms:g} ms (seed {spec.noise.seed})")
    lines = [
        f"### `{spec.name}`",
        "",
        spec.description,
        "",
        "| | |",
        "|---|---|",
        f"| Processor | `{spec.preset}` — {config.name} "
        f"({config.n_cores} cores × {config.smt_per_core} threads, "
        f"{config.vr_kind.name} rail) |",
        f"| Overrides | {overrides} |",
        f"| Mitigations | {', '.join(mitigations) if mitigations else '—'} |",
        f"| Tenants | {_tenant_line(spec)} |",
        f"| Background | {_background_line(spec)} |",
        f"| OS noise | {noise} |",
        f"| Faults | {'`' + spec.faults + '`' if spec.faults else '—'} |",
        f"| Protocol | {protocol} |",
        f"| Payload | `{spec.payload_hex}` ({len(spec.payload)} byte(s)) |",
        "",
        f"Run it: `python -m repro --scenario {spec.name}`",
    ]
    return "\n".join(lines)


def registry_markdown() -> str:
    """The full generated reference block (without the markers)."""
    entries = [_entry_markdown(spec) for spec in all_specs()]
    header = (f"_{len(entries)} registered scenarios, in registry "
              f"order.  This block is generated — edit "
              f"`src/repro/scenarios/registry.py` and re-run "
              f"`python -m repro.scenarios docs`._")
    return "\n\n".join([header] + entries)


def render_docs(text: str) -> str:
    """``text`` with the block between the markers regenerated."""
    begin = text.find(BEGIN_MARK)
    end = text.find(END_MARK)
    if begin < 0 or end < 0 or end < begin:
        raise ConfigError(
            f"the scenario reference needs both markers "
            f"{BEGIN_MARK!r} and {END_MARK!r}, in order")
    head = text[:begin + len(BEGIN_MARK)]
    tail = text[end:]
    return f"{head}\n\n{registry_markdown()}\n\n{tail}"


def check_docs(text: str) -> List[str]:
    """Lines of drift between ``text`` and a fresh render (empty = ok)."""
    fresh = render_docs(text)
    if fresh == text:
        return []
    old_lines = text.splitlines()
    new_lines = fresh.splitlines()
    drift = [
        f"line {i + 1}: {old!r} -> {new!r}"
        for i, (old, new) in enumerate(zip(old_lines, new_lines))
        if old != new
    ]
    if len(old_lines) != len(new_lines):
        drift.append(f"length changed: {len(old_lines)} -> "
                     f"{len(new_lines)} lines")
    return drift
