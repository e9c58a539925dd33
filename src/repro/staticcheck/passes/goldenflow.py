"""Golden-flow pass: mapping round-trips and digest-stable emission.

Every committed golden digest in this reproduction is a hash over the
canonical mapping form of a scenario run document, and the mapping form
is produced by the ``to_mapping``/``from_mapping`` layer in
:mod:`repro.scenarios.spec`.  That layer carries two easy-to-break
contracts that no unit test states explicitly:

``golden-roundtrip``
    Every field of a mapping dataclass must flow through *both*
    directions: emitted by ``to_mapping`` and consumed by
    ``from_mapping``.  A field missing on either side silently drops
    scenario configuration on the file/HTTP path while direct
    construction still works — the worst kind of skew.
``golden-emit``
    The set of keys ``to_mapping`` emits *unconditionally* is pinned
    per class in :data:`GOLDEN_UNCONDITIONAL`.  Adding a dataclass
    field to a pinned class re-digests every committed golden unless
    its emission is conditional (absent-means-default, the
    ``turbo_license_limit`` pattern); conversely, making a pinned key
    conditional changes existing digests too.  Classes outside the
    table are strict by default: conditional emission without a pinned
    contract is flagged, because absent-means-default is a deliberate,
    reviewed exception — never an accident.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.staticcheck.context import (
    ModuleContext,
    ProjectContext,
    _dataclass_field_names,
    _is_dataclass_def,
)
from repro.staticcheck.model import Finding, Severity
from repro.staticcheck.registry import Pass, Rule, register

#: Pinned unconditional-emission contracts: exactly the keys each
#: class's ``to_mapping`` emits on *every* call.  These sets are part
#: of the committed golden digests — change them only together with a
#: deliberate golden regeneration.
GOLDEN_UNCONDITIONAL: Dict[str, frozenset] = {
    "NoiseSpec": frozenset({
        "interrupt_rate_per_s", "interrupt_mean_us", "ctx_switch_rate_per_s",
        "ctx_switch_mean_us", "horizon_ms", "seed"}),
    "WorkloadSpec": frozenset({
        "kind", "core", "smt_slot", "duration_ms", "seed", "rate_per_s",
        "phases"}),
    "TenantSpec": frozenset({
        "channel", "sender_core", "receiver_core", "offset_fraction"}),
    "ScenarioSpec": frozenset({
        "name", "description", "preset", "overrides", "options",
        "protocol", "tenants", "noise", "faults", "background",
        "payload_hex"}),
}

def _call_tail(func: ast.expr) -> str:
    """The final identifier of a call target ('' if exotic)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _iterates_all_fields(node: ast.expr) -> bool:
    """Whether an expression derives from ``fields(...)``/``asdict(...)``.

    Both spell "every dataclass field, whatever they are" — the generic
    emission/consumption idiom that stays correct as fields are added.
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) \
                and _call_tail(sub.func) in ("fields", "asdict"):
            return True
    return False


def _string_constants(node: ast.AST) -> Set[str]:
    """Every string literal appearing anywhere under ``node``."""
    return {sub.value for sub in ast.walk(node)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)}


def _dict_literal_keys(node: ast.expr) -> Set[str]:
    """Direct string keys of a dict literal (nested dicts excluded)."""
    if not isinstance(node, ast.Dict):
        return set()
    return {key.value for key in node.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)}


def _subscript_key(target: ast.expr) -> Optional[str]:
    """The constant string key of a ``name[key]`` target, if that shape."""
    if (isinstance(target, ast.Subscript)
            and isinstance(target.slice, ast.Constant)
            and isinstance(target.slice.value, str)):
        return target.slice.value
    return None


def _emission_of(fn: ast.FunctionDef,
                 all_fields: Tuple[str, ...],
                 ) -> Tuple[Set[str], Set[str]]:
    """Split the keys ``fn`` emits into (unconditional, conditional).

    A dataflow-free approximation that covers the repo's emission
    idioms: literal dict returns, ``fields()``/``asdict()`` generic
    emission (standing for every dataclass field), top-level subscript
    stores, and ``del``/branch-guarded stores as the conditional forms.
    """
    unconditional: Set[str] = set()
    conditional: Set[str] = set()

    def emitted_by(expr: ast.expr) -> Set[str]:
        if _iterates_all_fields(expr):
            return set(all_fields) | _dict_literal_keys(expr)
        return _dict_literal_keys(expr)

    def visit(statements: List[ast.stmt], branch: bool) -> None:
        sink = conditional if branch else unconditional
        for stmt in statements:
            if isinstance(stmt, ast.Assign):
                sink.update(emitted_by(stmt.value))
                for target in stmt.targets:
                    key = _subscript_key(target)
                    if key is not None:
                        sink.add(key)
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                sink.update(emitted_by(stmt.value))
            elif isinstance(stmt, ast.Delete):
                for target in stmt.targets:
                    key = _subscript_key(target)
                    if key is not None:
                        unconditional.discard(key)
                        if branch:
                            conditional.add(key)
            elif isinstance(stmt, (ast.If,)):
                visit(stmt.body, True)
                visit(stmt.orelse, True)
            elif isinstance(stmt, (ast.For, ast.While)):
                visit(stmt.body, True)
                visit(stmt.orelse, True)
            elif isinstance(stmt, ast.Try):
                visit(stmt.body, True)
                visit(stmt.orelse, True)
                visit(stmt.finalbody, branch)
                for handler in stmt.handlers:
                    visit(handler.body, True)
            elif isinstance(stmt, ast.With):
                visit(stmt.body, branch)

    visit(fn.body, False)
    return unconditional, conditional - unconditional


@register
class GoldenFlowPass:
    """Checks the mapping layer's round-trip and digest contracts."""

    name = "goldenflow"
    rules: Tuple[Rule, ...] = (
        Rule("golden-roundtrip",
             "mapping dataclass field missing from the round-trip",
             Severity.ERROR,
             "emit the field in to_mapping and consume it in "
             "from_mapping (or drop the field)"),
        Rule("golden-emit",
             "unconditional emission set deviates from the pinned "
             "golden contract",
             Severity.ERROR,
             "emit new fields conditionally (absent-means-default), or "
             "update GOLDEN_UNCONDITIONAL together with a deliberate "
             "golden regeneration"),
    )

    def run(self, ctx: ModuleContext,
            project: ProjectContext) -> List[Finding]:
        """Scan every mapping class of the module."""
        collector = _Collector(self, ctx)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                collector.check_class(node)
        return sorted(collector.findings,
                      key=lambda f: (f.line, f.rule, f.message))


class _Collector:
    """Accumulates goldenflow findings for one module."""

    def __init__(self, owner: GoldenFlowPass, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.findings: List[Finding] = []
        self._rules = {rule.id: rule for rule in owner.rules}

    def _add(self, rule_id: str, node: ast.AST, message: str) -> None:
        rule = self._rules[rule_id]
        line = getattr(node, "lineno", 0)
        self.findings.append(Finding(
            rule=rule_id, path=self.ctx.path, line=line, message=message,
            source=self.ctx.source_line(line),
            severity=rule.default_severity,
            fix_hint=rule.default_fix_hint))

    # -- per-class checks ----------------------------------------------------

    def check_class(self, node: ast.ClassDef) -> None:
        """Apply the mapping rules to one class."""
        methods = {stmt.name: stmt for stmt in node.body
                   if isinstance(stmt, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))}
        to_mapping = methods.get("to_mapping")
        from_mapping = methods.get("from_mapping")
        is_dataclass = _is_dataclass_def(node)
        local_fields = _dataclass_field_names(node) if is_dataclass else ()
        if to_mapping is not None and from_mapping is not None \
                and is_dataclass:
            self._check_roundtrip(node, to_mapping, from_mapping,
                                  local_fields)
        if to_mapping is not None \
                and isinstance(to_mapping, ast.FunctionDef):
            self._check_emission(node, to_mapping, local_fields)

    def _check_roundtrip(self, cls: ast.ClassDef, to_fn: ast.stmt,
                         from_fn: ast.stmt,
                         fields_tuple: Tuple[str, ...]) -> None:
        """Every field must appear on both sides of the round-trip."""
        for direction, fn in (("emitted by to_mapping", to_fn),
                              ("consumed by from_mapping", from_fn)):
            if _iterates_all_fields(fn):
                continue
            mentioned = _string_constants(fn)
            for field_name in fields_tuple:
                if field_name not in mentioned:
                    self._add("golden-roundtrip", fn,
                              f"field '{field_name}' of {cls.name} is "
                              f"never {direction}; it is silently "
                              f"dropped on the mapping path")

    def _check_emission(self, cls: ast.ClassDef, to_fn: ast.FunctionDef,
                        fields_tuple: Tuple[str, ...]) -> None:
        """The unconditional key set must match the pinned contract."""
        unconditional, conditional = _emission_of(to_fn, fields_tuple)
        pinned = GOLDEN_UNCONDITIONAL.get(cls.name)
        if pinned is None:
            for key in sorted(conditional):
                self._add("golden-emit", to_fn,
                          f"{cls.name}.to_mapping emits '{key}' "
                          f"conditionally without a pinned golden "
                          f"contract; absent-means-default emission "
                          f"must be a reviewed GOLDEN_UNCONDITIONAL "
                          f"entry")
            return
        for key in sorted(unconditional - pinned):
            self._add("golden-emit", to_fn,
                      f"{cls.name}.to_mapping unconditionally emits "
                      f"'{key}', which is outside the pinned golden "
                      f"contract; every committed golden digest "
                      f"embedding this mapping would change")
        for key in sorted(pinned - unconditional):
            self._add("golden-emit", to_fn,
                      f"pinned golden key '{key}' of {cls.name} is no "
                      f"longer unconditionally emitted; committed "
                      f"digests relying on it would change")
