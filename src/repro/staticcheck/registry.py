"""Pass protocol and the process-wide pass registry.

A *pass* is one analysis plugin: it owns a set of rule ids and, given a
parsed module plus the cross-module :class:`~repro.staticcheck.context.
ProjectContext`, returns findings.  Passes register themselves at import
time via the :func:`register` decorator; the driver asks the registry
which passes cover the rules a run selected.

Keeping the registry dumb (a dict, no entry points, no dynamic import
magic) means a new pass is exactly: one module under
``repro/staticcheck/passes/`` plus one import in that package's
``__init__``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Protocol, Tuple

from repro.errors import ConfigError
from repro.staticcheck.model import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.staticcheck.context import ModuleContext, ProjectContext


@dataclass(frozen=True)
class Rule:
    """Metadata of one rule id a pass can emit.

    ``default_severity`` and ``default_fix_hint`` seed the findings;
    ``summary`` feeds the SARIF rule catalog and ``--list-rules``.
    """

    id: str
    summary: str
    default_severity: Severity = Severity.WARNING
    default_fix_hint: str = ""


class Pass(Protocol):
    """The plugin interface every analysis pass implements."""

    #: Unique pass name (``dimensional``, ``determinism``, ...).
    name: str
    #: The rules this pass can emit, in reporting order.
    rules: Tuple[Rule, ...]

    def run(self, ctx: "ModuleContext",
            project: "ProjectContext") -> List[Finding]:
        """Analyse one module and return its findings."""
        ...  # pragma: no cover - protocol body


#: Registered passes by name, in registration order.
_PASSES: Dict[str, Pass] = {}
#: Rule id -> owning pass name (uniqueness enforced at registration).
_RULE_OWNERS: Dict[str, str] = {}


def register(pass_cls: type) -> type:
    """Class decorator: instantiate and register an analysis pass."""
    instance: Pass = pass_cls()
    if instance.name in _PASSES:
        raise ConfigError(f"duplicate pass name: {instance.name!r}")
    for rule in instance.rules:
        owner = _RULE_OWNERS.get(rule.id)
        if owner is not None:
            raise ConfigError(
                f"rule {rule.id!r} registered by both {owner!r} "
                f"and {instance.name!r}")
        _RULE_OWNERS[rule.id] = instance.name
    _PASSES[instance.name] = instance
    return pass_cls


def all_passes() -> List[Pass]:
    """Every registered pass, in registration order."""
    _ensure_loaded()
    return list(_PASSES.values())


def get_pass(name: str) -> Pass:
    """The registered pass called ``name``."""
    _ensure_loaded()
    if name not in _PASSES:
        raise ConfigError(
            f"unknown pass {name!r}; registered: {', '.join(_PASSES)}")
    return _PASSES[name]


def all_rules() -> Dict[str, Rule]:
    """Every registered rule by id, in pass registration order."""
    _ensure_loaded()
    rules: Dict[str, Rule] = {}
    for pass_obj in _PASSES.values():
        for rule in pass_obj.rules:
            rules[rule.id] = rule
    return rules


def rule_ids() -> Tuple[str, ...]:
    """All registered rule ids, in reporting order."""
    return tuple(all_rules())


def validate_rules(selected: Iterable[str]) -> Tuple[str, ...]:
    """Check every selected rule id exists; returns them as a tuple."""
    known = all_rules()
    chosen = tuple(selected)
    for rule_id in chosen:
        if rule_id not in known:
            raise ConfigError(
                f"unknown rule {rule_id!r}; valid: {', '.join(known)}")
    return chosen


def expand_selection(selected: Iterable[str]) -> Tuple[str, ...]:
    """Resolve a mixed rule-id / pass-name selection to rule ids.

    ``--rule determinism`` selects every rule the determinism pass owns;
    ``--rule heap-tiebreak`` selects exactly that rule.  A name
    that is neither raises :class:`~repro.errors.ConfigError` listing
    both namespaces.
    """
    _ensure_loaded()
    known = all_rules()
    expanded: List[str] = []
    for item in selected:
        if item in known:
            expanded.append(item)
        elif item in _PASSES:
            expanded.extend(rule.id for rule in _PASSES[item].rules)
        else:
            raise ConfigError(
                f"unknown rule or pass {item!r}; valid rules: "
                f"{', '.join(known)}; valid passes: {', '.join(_PASSES)}")
    return tuple(dict.fromkeys(expanded))


def rule_owners() -> Dict[str, str]:
    """Rule id -> owning pass name, for the reporters."""
    _ensure_loaded()
    return dict(_RULE_OWNERS)


def passes_for(selected: Optional[Iterable[str]]) -> List[Pass]:
    """The passes needed to evaluate ``selected`` (None = all).

    ``selected`` may mix rule ids and pass names; see
    :func:`expand_selection`.
    """
    _ensure_loaded()
    if selected is None:
        return all_passes()
    wanted = set(expand_selection(selected))
    chosen: List[Pass] = []
    for pass_obj in _PASSES.values():
        if any(rule.id in wanted for rule in pass_obj.rules):
            chosen.append(pass_obj)
    return chosen


def _ensure_loaded() -> None:
    """Import the built-in passes so registration has happened."""
    import repro.staticcheck.passes  # noqa: F401  (registration side effect)
