"""Determinism lint: the source rules the golden digests depend on.

One AST visitor enforces every rule over ``src/repro``:

``unseeded-rng``
    ``np.random.default_rng()`` / ``random.Random()`` without a seed.
``global-rng``
    Calls through numpy's legacy global generator (``np.random.uniform``,
    ``np.random.seed``, ...): global state leaks across call sites and
    breaks "every trial's seed derives from its coordinates".
``wall-clock``
    ``time.time``/``perf_counter``/``datetime.now`` (and names imported
    from ``time``) inside the simulator core (``soc``, ``pdn``, ``pmu``,
    ``microarch``); host time belongs to ``runner``/``obs``.
``float-eq``
    Bare ``==``/``!=`` between physical quantities (named by identifier
    components: ``vcc``, ``t``, ``ghz``, ...) or between one and a float
    literal.
``mutable-default``
    Mutable default arguments (``def f(x=[])``).
``missing-hints``
    A public top-level function or method without a complete set of
    parameter and return annotations.
``unused-import``
    A name bound by an import statement of the module body that the
    module never reads.  A name in the module's ``__all__`` is a
    re-export, and one read only in annotations (string ones included)
    is used.  ``from __future__`` is skipped, and so are imports nested
    in a block such as ``if TYPE_CHECKING:``.

Deliberate exceptions live in ``tests/lint_waivers.txt``, one
``rule path-glob [substring]`` line each: the rule id, an fnmatch glob
(or suffix) over the ``repro/...`` path, and an optional substring that
must appear in the offending source line.  A waiver that matches
nothing fails the run, so the file can only shrink.  ``python -m
repro.verify`` runs :func:`lint_tree` as its lint stage.
"""

from __future__ import annotations

import ast
import fnmatch
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Set, Tuple

from repro.errors import ConfigError

#: Every rule id; a waiver must name one of them.
RULES = ("unseeded-rng", "global-rng", "wall-clock", "float-eq",
         "mutable-default", "missing-hints", "unused-import")

#: ``repro`` subpackages forming the simulator core, where the
#: wall-clock rule applies.
WALL_CLOCK_PACKAGES = frozenset({"soc", "pdn", "pmu", "microarch"})

#: Wall-clock attribute names on the ``time`` module.
_TIME_ATTRS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
})

#: Wall-clock attribute names on ``datetime``/``datetime.datetime``.
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: ``np.random`` attributes that build a local generator (not global).
_GENERATOR_ATTRS = frozenset({"default_rng", "Generator", "SeedSequence",
                              "PCG64", "Philox"})

#: Identifier components marking a physical quantity for ``float-eq``;
#: ``vcc_start_mv`` has components {vcc, start, mv}.
PHYSICAL_COMPONENTS = frozenset({
    "vcc", "vdd", "volt", "volts", "voltage", "mv", "icc", "amp", "amps",
    "current", "temp", "temperature", "time", "times", "t", "t0", "t1",
    "ns", "us", "ms", "ghz", "mhz", "hz", "freq", "frequency",
})

_MUTABLE_NODES = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                  ast.SetComp)
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})


@dataclass(frozen=True)
class Finding:
    """One rule violated at a ``repro/...`` path and 1-based line.

    ``source`` is the stripped source line; waivers match on rule, path
    and source, so findings survive unrelated line shifts.
    """

    rule: str
    path: str
    line: int
    message: str
    source: str

    def render(self) -> str:
        """One ``path:line: [rule] message`` report line."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class Waiver:
    """One ``rule path-glob [substring]`` line of the waiver file."""

    rule: str
    path_glob: str
    substring: Optional[str] = None

    def matches_path(self, path: str) -> bool:
        """Whether this waiver's glob (or suffix) covers ``path``."""
        return (fnmatch.fnmatch(path, self.path_glob)
                or path.endswith(self.path_glob))

    def matches(self, finding: Finding) -> bool:
        """Whether this waiver covers ``finding``."""
        return (self.rule == finding.rule
                and self.matches_path(finding.path)
                and (self.substring is None
                     or self.substring in finding.source))

    def render(self) -> str:
        """The waiver-file line this record corresponds to."""
        tail = f" {self.substring}" if self.substring else ""
        return f"{self.rule} {self.path_glob}{tail}"


@dataclass
class Report:
    """One lint run: live findings, waived findings, unused waivers."""

    findings: List[Finding] = field(default_factory=list)
    waived: List[Finding] = field(default_factory=list)
    unused_waivers: List[Waiver] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no live findings and no unused waivers remain."""
        return not self.findings and not self.unused_waivers


def parse_waivers(text: str) -> List[Waiver]:
    """Parse waiver-file text; ``#`` comments and blank lines allowed.

    Raises :class:`~repro.errors.ConfigError` on a line with fewer than
    two fields or an unknown rule id.
    """
    waivers: List[Waiver] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) < 2:
            raise ConfigError(
                f"waiver line {lineno}: expected 'rule path-glob "
                f"[substring]', got {raw!r}")
        if parts[0] not in RULES:
            raise ConfigError(
                f"waiver line {lineno}: unknown rule {parts[0]!r}; valid: "
                f"{', '.join(RULES)}")
        waivers.append(Waiver(parts[0], parts[1],
                              parts[2].strip() if len(parts) == 3 else None))
    return waivers


def default_root() -> Path:
    """The ``repro`` package source tree (``src/repro``)."""
    import repro

    return Path(repro.__file__).resolve().parent


def default_waivers_path() -> Path:
    """The repo's waiver file, ``tests/lint_waivers.txt``."""
    return default_root().parent.parent / "tests" / "lint_waivers.txt"


def lint_source(source: str, path: str) -> List[Finding]:
    """Every finding in one module's ``source``, checked as ``path``.

    ``path`` is the ``repro/...`` posix path; its first package below
    ``repro`` decides whether the wall-clock rule applies.  A syntax
    error raises :class:`~repro.errors.ConfigError`.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise ConfigError(
            f"{path}: cannot parse for analysis: {exc}") from None
    parts = path.split("/")
    below = parts[parts.index("repro") + 1:] if "repro" in parts else parts
    visitor = _Visitor(path, source.splitlines(),
                       bool(below) and below[0] in WALL_CLOCK_PACKAGES)
    visitor.visit(tree)
    for name, node in _unused_imports(tree):
        visitor._add("unused-import", node,
                     f"'{name}' is imported but never used")
    return sorted(visitor.findings, key=lambda f: (f.line, f.rule))


def lint_tree(root: Optional[Path] = None,
              waivers_path: Optional[Path] = None) -> Report:
    """Lint every module under ``root`` (default ``src/repro``).

    ``root`` may be the package, a subpackage or one module; each is
    reported as ``repro/...``, the form the waiver file uses.  Waivers
    come from ``waivers_path`` (default :func:`default_waivers_path`);
    one that covers an analysed module but matches no finding is
    reported unused.
    """
    root = Path(root).resolve() if root is not None else default_root()
    files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
    top = root.parent
    while (top / "__init__.py").is_file():
        top = top.parent
    paths: List[str] = []
    findings: List[Finding] = []
    for file in files:
        paths.append(file.relative_to(top).as_posix())
        findings.extend(lint_source(file.read_text(encoding="utf-8"),
                                    paths[-1]))
    text = Path(waivers_path or default_waivers_path()).read_text(
        encoding="utf-8")
    waivers = [w for w in parse_waivers(text)
               if any(w.matches_path(p) for p in paths)]
    report = Report()
    used: Set[int] = set()
    for finding in findings:
        index = next((i for i, w in enumerate(waivers)
                      if w.matches(finding)), None)
        if index is None:
            report.findings.append(finding)
        else:
            used.add(index)
            report.waived.append(finding)
    report.unused_waivers = [w for i, w in enumerate(waivers)
                             if i not in used]
    return report


def _read_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads, string annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for const in ast.walk(annotation):
                if isinstance(const, ast.Constant) and isinstance(
                        const.value, str):
                    try:
                        parsed = ast.parse(const.value, mode="eval")
                    except SyntaxError:
                        continue
                    names.update(n.id for n in ast.walk(parsed)
                                 if isinstance(n, ast.Name))
    return names


def _exported_names(tree: ast.Module) -> Set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in stmt.targets)
                and isinstance(stmt.value, (ast.List, ast.Tuple))):
            return {e.value for e in stmt.value.elts
                    if isinstance(e, ast.Constant)}
    return set()


def _unused_imports(tree: ast.Module) -> List[Tuple[str, ast.stmt]]:
    """(name, import statement) of each module-level import never read."""
    used = _read_names(tree) | _exported_names(tree)
    unused: List[Tuple[str, ast.stmt]] = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0]
                     for alias in stmt.names]
        elif (isinstance(stmt, ast.ImportFrom)
                and stmt.module != "__future__"):
            bound = [alias.asname or alias.name for alias in stmt.names
                     if alias.name != "*"]
        else:
            continue
        unused.extend((name, stmt) for name in bound if name not in used)
    return unused


def _identifier_of(node: ast.AST) -> str:
    """The identifier a comparison side 'is about', or ''."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        return _identifier_of(node.value)
    if isinstance(node, ast.Call):
        return _identifier_of(node.func)
    if isinstance(node, ast.UnaryOp):
        return _identifier_of(node.operand)
    return ""


def _is_physical(node: ast.AST) -> bool:
    """Whether a comparison side names a physical quantity."""
    components = _identifier_of(node).lower().split("_")
    return any(part in PHYSICAL_COMPONENTS for part in components)


def _is_float_literal(node: ast.AST) -> bool:
    """Whether a node is a (possibly signed) float constant."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                    (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


class _Visitor(ast.NodeVisitor):
    """Collects the findings of every rule for one module."""

    def __init__(self, path: str, lines: List[str],
                 check_wall_clock: bool) -> None:
        self.path = path
        self.lines = lines
        self.check_wall_clock = check_wall_clock
        self.findings: List[Finding] = []
        #: Names imported from ``time`` that read the wall clock.
        self._wall_clock_names: Set[str] = set()
        #: How many defs enclose the current node; a def inside a def is
        #: a local helper, not public API.
        self._function_depth = 0

    def _add(self, rule: str, node: ast.AST, message: str) -> None:
        """Record one finding at ``node``'s line."""
        line = getattr(node, "lineno", 0)
        source = self.lines[line - 1].strip() if 0 < line <= len(
            self.lines) else ""
        self.findings.append(Finding(rule, self.path, line, message, source))

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        """Track wall-clock names imported from ``time``."""
        if node.module == "time":
            for alias in node.names:
                if alias.name in _TIME_ATTRS:
                    self._wall_clock_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        """Apply the two RNG rules to one call."""
        func = node.func
        tail = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else "")
        unseeded = not node.args and not node.keywords
        if tail == "default_rng" and unseeded:
            self._add("unseeded-rng", node,
                      "np.random.default_rng() without an explicit seed")
        if tail == "Random" and unseeded and (
                isinstance(func, ast.Name)
                or (isinstance(func.value, ast.Name)
                    and func.value.id == "random")):
            self._add("unseeded-rng", node,
                      "random.Random() without an explicit seed")
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "random"
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in ("np", "numpy")
                and func.attr not in _GENERATOR_ATTRS):
            self._add("global-rng", node,
                      f"legacy global-state RNG np.random.{func.attr}(...)")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        """Apply the wall-clock rule to ``time.*``/``datetime.*`` reads."""
        if self.check_wall_clock:
            value = node.value
            if (isinstance(value, ast.Name) and value.id == "time"
                    and node.attr in _TIME_ATTRS):
                self._add("wall-clock", node,
                          f"wall-clock read time.{node.attr} in "
                          f"simulator core")
            if node.attr in _DATETIME_ATTRS and (
                    (isinstance(value, ast.Name) and value.id == "datetime")
                    or (isinstance(value, ast.Attribute)
                        and value.attr == "datetime")):
                self._add("wall-clock", node,
                          f"wall-clock read datetime.{node.attr} in "
                          f"simulator core")
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        """Flag uses of names imported from the wall clock."""
        if (self.check_wall_clock and isinstance(node.ctx, ast.Load)
                and node.id in self._wall_clock_names):
            self._add("wall-clock", node,
                      f"wall-clock read {node.id} (imported from time) "
                      f"in simulator core")
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        """Apply the float-eq rule to one comparison."""
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            sides = [node.left, *node.comparators]
            physical = [side for side in sides if _is_physical(side)]
            if physical and (len(physical) >= 2
                             or any(map(_is_float_literal, sides))):
                self._add("float-eq", node,
                          f"bare float equality on physical quantity "
                          f"'{_identifier_of(physical[0])}'; compare "
                          f"with an epsilon")
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Check one def's defaults and, if public API, its hints."""
        args = node.args
        for default in [*args.defaults, *filter(None, args.kw_defaults)]:
            if isinstance(default, _MUTABLE_NODES) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in _MUTABLE_CALLS):
                self._add("mutable-default", default,
                          f"mutable default argument in {node.name}()")
        if not node.name.startswith("_") and self._function_depth == 0:
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            if params and params[0].arg in ("self", "cls"):
                params = params[1:]
            missing = [a.arg for a in params if a.annotation is None]
            if node.returns is None:
                missing.append("return")
            if missing:
                self._add("missing-hints", node,
                          f"{node.name}() is missing annotations for: "
                          f"{', '.join(missing)}")
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef
