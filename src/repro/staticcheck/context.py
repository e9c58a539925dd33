"""Per-module and cross-module analysis context.

A :class:`ModuleContext` wraps one parsed source file (path, text, AST)
with the helpers passes keep reaching for.  A :class:`ProjectContext`
holds what a single module cannot know: the *signature table* mapping
function names to their parameter names and inferred unit tags, and
the dataclass field table the goldenflow pass checks mapping
round-trips with — both built in a pre-scan over every module of the
run.

Name collisions are handled conservatively: two functions sharing a name
with different parameter lists make that name *ambiguous* and call sites
through it are skipped rather than guessed at; two dataclasses sharing a
name with different field tuples drop out of the field table the same
way.

The pre-scan of one module reduces to a JSON-friendly *facts* dict
(:func:`module_facts`), so the incremental engine can cache facts per
source hash and rebuild the :class:`ProjectContext` — including its
deterministic :meth:`~ProjectContext.digest` used in finding cache
keys — without re-parsing unchanged modules.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigError
from repro.staticcheck.dataflow import (
    UnitTag,
    return_tag_of,
    tag_of_identifier,
)

#: Version of the facts-dict layout; bump to invalidate cached facts.
FACTS_VERSION = 2


@dataclass(frozen=True)
class FunctionSig:
    """One callable's externally visible shape for call-site checking."""

    name: str
    #: Parameter names with ``self``/``cls`` stripped.
    params: Tuple[str, ...]
    #: Unit tag inferred from each parameter's name (None = untagged).
    param_tags: Tuple[Optional[UnitTag], ...]
    #: Unit tag of the return value (from the function name), if any.
    return_tag: Optional[UnitTag] = None


def _sig_of(node: ast.AST) -> Optional[FunctionSig]:
    """Build a :class:`FunctionSig` from a def node, or None."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return None
    args = list(node.args.posonlyargs) + list(node.args.args)
    names = [a.arg for a in args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    tags = tuple(tag_of_identifier(n) for n in names)
    return FunctionSig(node.name, tuple(names), tags, return_tag_of(node.name))


@dataclass
class ModuleContext:
    """One parsed module under analysis."""

    #: Repo-relative posix path, e.g. ``repro/pdn/droop.py``.
    path: str
    source: str
    tree: ast.Module
    lines: Sequence[str] = field(default_factory=tuple)

    @classmethod
    def from_source(cls, source: str, path: str) -> "ModuleContext":
        """Parse ``source``; raises :class:`ConfigError` on syntax errors."""
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            raise ConfigError(
                f"{path}: cannot parse for analysis: {exc}") from None
        return cls(path=path.replace("\\", "/"), source=source, tree=tree,
                   lines=tuple(source.splitlines()))

    def source_line(self, lineno: int) -> str:
        """The stripped source text of 1-based ``lineno`` (or '')."""
        if 0 < lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def package_parts(self) -> Tuple[str, ...]:
        """Path components below the ``repro`` package root."""
        parts = self.path.split("/")
        if "repro" in parts:
            parts = parts[parts.index("repro") + 1:]
        return tuple(parts)

    def in_packages(self, names: Iterable[str]) -> bool:
        """Whether this module lives in one of the named subpackages."""
        parts = self.package_parts()
        return bool(parts) and parts[0] in tuple(names)

    def imported_module_names(self) -> Set[str]:
        """Local names bound to modules by top-level imports.

        Used to tell ``module.function`` references (fine to hand to a
        process pool) apart from bound methods on instances (not fine).
        """
        names: Set[str] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    names.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                # ``from x import y`` may bind a submodule; treating every
                # from-import as module-ish would hide bound methods, so
                # only plain ``import`` counts.
                continue
        return names

    def module_level_names(self) -> Set[str]:
        """Names assigned at module scope (the module's globals)."""
        names: Set[str] = set()
        for node in self.tree.body:
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
        return names


def _tag_to_str(tag: Optional[UnitTag]) -> Optional[str]:
    """Serialise a unit tag as ``group`` / ``group:scale`` / None."""
    if tag is None:
        return None
    return tag.group if tag.scale is None else f"{tag.group}:{tag.scale}"


def _tag_from_str(text: Optional[str]) -> Optional[UnitTag]:
    """Inverse of :func:`_tag_to_str`."""
    if text is None:
        return None
    group, _, scale = text.partition(":")
    return UnitTag(group, scale or None)


def _is_dataclass_def(node: ast.ClassDef) -> bool:
    """Whether a class def carries a ``@dataclass`` decorator."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _dataclass_field_names(node: ast.ClassDef) -> Tuple[str, ...]:
    """The annotated field names of a dataclass body, in order."""
    names: List[str] = []
    for stmt in node.body:
        if (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            annotation = ast.unparse(stmt.annotation)
            if "ClassVar" in annotation:
                continue
            names.append(stmt.target.id)
    return tuple(names)


def module_facts(module: ModuleContext) -> Dict[str, Any]:
    """The JSON-friendly cross-module facts one module contributes.

    Facts are everything :class:`ProjectContext` needs from a module:
    its callable signatures (with unit tags) and its dataclass field
    tables.  Because the dict is pure JSON, the incremental engine can
    persist it keyed on the module's source hash and skip re-parsing
    unchanged modules entirely.
    """
    signatures: List[List[Any]] = []
    dataclasses: Dict[str, List[str]] = {}
    for node in ast.walk(module.tree):
        sig = _sig_of(node)
        if sig is not None:
            signatures.append([
                sig.name, list(sig.params),
                [_tag_to_str(tag) for tag in sig.param_tags],
                _tag_to_str(sig.return_tag),
            ])
        elif isinstance(node, ast.ClassDef) and _is_dataclass_def(node):
            dataclasses[node.name] = list(_dataclass_field_names(node))
    return {
        "version": FACTS_VERSION,
        "signatures": signatures,
        "dataclasses": dataclasses,
    }


class ProjectContext:
    """Cross-module knowledge shared by every pass of one run."""

    def __init__(self) -> None:
        self._signatures: Dict[str, FunctionSig] = {}
        self._ambiguous: Set[str] = set()
        self._dataclass_fields: Dict[str, Tuple[str, ...]] = {}
        self._ambiguous_dataclasses: Set[str] = set()
        self._digest: Optional[str] = None

    @classmethod
    def build(cls, modules: Iterable[ModuleContext]) -> "ProjectContext":
        """Pre-scan ``modules`` into the cross-module tables."""
        return cls.from_facts(module_facts(m) for m in modules)

    @classmethod
    def from_facts(cls, facts: Iterable[Dict[str, Any]]) -> "ProjectContext":
        """Merge per-module facts dicts (see :func:`module_facts`)."""
        project = cls()
        canonical: List[Dict[str, Any]] = []
        for entry in facts:
            canonical.append(entry)
            for name, params, tags, return_tag in entry["signatures"]:
                project.add_signature(FunctionSig(
                    name, tuple(params),
                    tuple(_tag_from_str(t) for t in tags),
                    _tag_from_str(return_tag)))
            for cls_name, fields_list in entry["dataclasses"].items():
                project.add_dataclass(cls_name, tuple(fields_list))
        payload = json.dumps(canonical, sort_keys=True, ensure_ascii=True)
        project._digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        return project

    def add_signature(self, sig: FunctionSig) -> None:
        """Record one callable; colliding shapes mark the name ambiguous."""
        if sig.name in self._ambiguous:
            return
        existing = self._signatures.get(sig.name)
        if existing is not None and existing.params != sig.params:
            del self._signatures[sig.name]
            self._ambiguous.add(sig.name)
            return
        self._signatures[sig.name] = sig

    def signature(self, name: str) -> Optional[FunctionSig]:
        """The unambiguous signature registered under ``name``, if any."""
        return self._signatures.get(name)

    @property
    def signature_count(self) -> int:
        """How many unambiguous callables the table holds."""
        return len(self._signatures)

    def add_dataclass(self, name: str, fields_tuple: Tuple[str, ...]) -> None:
        """Record one dataclass; colliding field sets make it ambiguous."""
        if name in self._ambiguous_dataclasses:
            return
        existing = self._dataclass_fields.get(name)
        if existing is not None and existing != fields_tuple:
            del self._dataclass_fields[name]
            self._ambiguous_dataclasses.add(name)
            return
        self._dataclass_fields[name] = fields_tuple

    def dataclass_fields(self, name: str) -> Optional[Tuple[str, ...]]:
        """Field names of the unambiguous dataclass ``name``, if known."""
        return self._dataclass_fields.get(name)

    def digest(self) -> str:
        """Deterministic content hash of the cross-module tables.

        Part of every finding-cache key: a module's cached findings are
        only valid while the project facts every pass may consult are
        byte-identical.  Built from the canonical facts stream, so
        body-only edits that leave signatures/field tables unchanged do
        not invalidate other modules' cached findings.
        """
        if self._digest is None:
            # Built incrementally via add_signature (legacy path): hash
            # the merged tables instead of the per-module facts stream.
            payload = json.dumps({
                "signatures": sorted(
                    [s.name, list(s.params),
                     [_tag_to_str(t) for t in s.param_tags],
                     _tag_to_str(s.return_tag)]
                    for s in self._signatures.values()),
                "dataclasses": {k: list(v) for k, v in
                                sorted(self._dataclass_fields.items())},
            }, sort_keys=True)
            self._digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        return self._digest
