"""Per-module and cross-module analysis context.

A :class:`ModuleContext` wraps one parsed source file (path, text, AST)
with the helpers passes keep reaching for.  A :class:`ProjectContext`
holds what a single module cannot know: the *signature table* mapping
function names to their parameter names and inferred unit tags, built
in a pre-scan over every module of the run.

Name collisions are handled conservatively: two functions sharing a name
with different parameter lists make that name *ambiguous* and call sites
through it are skipped rather than guessed at.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigError
from repro.staticcheck.dataflow import (
    UnitTag,
    return_tag_of,
    tag_of_identifier,
)

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


class ProjectContext:
    """Cross-module knowledge shared by every pass of one run."""

    def __init__(self) -> None:
        self._signatures: Dict[str, FunctionSig] = {}
        self._ambiguous: Set[str] = set()

    @classmethod
    def build(cls, modules: Iterable[ModuleContext]) -> "ProjectContext":
        """Pre-scan ``modules`` into the cross-module tables."""
        project = cls()
        for module in modules:
            for node in ast.walk(module.tree):
                sig = _sig_of(node)
                if sig is not None:
                    project.add_signature(sig)
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
