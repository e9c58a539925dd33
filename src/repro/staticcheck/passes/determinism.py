"""Simulated-time determinism pass.

The golden-trace harness (:mod:`repro.verify`) certifies that canonical
runs are bit-reproducible; this pass certifies the *source* obeys the
rules that make those runs reproducible in the first place.  Its first
three rules are part of the ``repro.verify`` lint stage; the last two
are event-engine rules:

``unseeded-rng``
    ``np.random.default_rng()`` / ``random.Random()`` constructed
    without an explicit seed — nondeterminism by construction.
``global-rng``
    Calls through numpy's legacy global generator (``np.random.
    uniform``, ``np.random.seed``, ...).  Global RNG state leaks across
    call sites and breaks the "every trial's seed derives from its
    coordinates" contract the parallel sweeps rely on.
``wall-clock``
    Wall-clock reads (``time.time``, ``perf_counter``, ``datetime.now``)
    inside the simulator core packages; the simulation must advance only
    on its own event clock.  Host time belongs to the side-car layers
    (``runner``, ``obs``) only.
``heap-tiebreak``
    ``heapq.heappush`` of a bare ``(time, payload)`` pair.  Two events at
    the same timestamp then compare on the payload — falling back to
    object identity order (or raising) — so same-time events pop in an
    unreproducible order.  The engine's contract is ``(time, seq,
    payload)`` with a monotone sequence number.
``unordered-iter``
    Iterating directly over a set (literal, ``set(...)``, or a local
    bound to one).  Set iteration order depends on insertion history and
    hash seeding; anything accumulated from it — float sums, digests,
    event schedules — is run-to-run unstable.  Iterate ``sorted(...)``
    instead.
"""

from __future__ import annotations

import ast
from typing import List, Sequence, Set, Tuple

from repro.staticcheck.context import ModuleContext, ProjectContext
from repro.staticcheck.dataflow import local_bindings
from repro.staticcheck.model import Finding, Severity
from repro.staticcheck.registry import Pass, Rule, register

#: Top-level ``repro`` subpackages that form the simulator core — the
#: only places the wall-clock rule applies (runner/obs are host-side).
WALL_CLOCK_PACKAGES: Tuple[str, ...] = ("soc", "pdn", "pmu", "microarch")

#: Wall-clock attribute names on the ``time`` module.
_TIME_ATTRS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
})

#: Wall-clock attribute names on ``datetime``/``datetime.datetime``.
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


@register
class DeterminismPass:
    """Flags sources of run-to-run nondeterminism."""

    name = "determinism"
    rules: Tuple[Rule, ...] = (
        Rule("unseeded-rng",
             "RNG constructed without an explicit seed",
             Severity.ERROR,
             "derive the seed from the trial's coordinates and pass it "
             "explicitly"),
        Rule("global-rng",
             "call through numpy's legacy global RNG",
             Severity.ERROR,
             "construct a local np.random.default_rng(seed) and call "
             "methods on it"),
        Rule("wall-clock",
             "wall-clock read inside the simulator core",
             Severity.WARNING,
             "advance on the engine's simulated clock; host time "
             "belongs to runner/obs only"),
        Rule("heap-tiebreak",
             "heap entry without a monotone tiebreak key",
             Severity.ERROR,
             "push (time, next(seq), payload) so same-timestamp events "
             "pop in schedule order"),
        Rule("unordered-iter",
             "iteration directly over an unordered set",
             Severity.WARNING,
             "iterate sorted(the_set) so downstream accumulation is "
             "order-stable"),
    )

    def run(self, ctx: ModuleContext,
            project: ProjectContext) -> List[Finding]:
        """Visit the module tree with every determinism rule armed."""
        visitor = _Visitor(self, ctx,
                           ctx.in_packages(WALL_CLOCK_PACKAGES))
        visitor.visit(ctx.tree)
        return visitor.findings


class _Visitor(ast.NodeVisitor):
    """Collects determinism findings for one module."""

    def __init__(self, owner: DeterminismPass, ctx: ModuleContext,
                 check_wall_clock: bool) -> None:
        self.owner = owner
        self.ctx = ctx
        self.check_wall_clock = check_wall_clock
        self.findings: List[Finding] = []
        self._rules = {rule.id: rule for rule in owner.rules}
        #: Names imported from ``time`` that read the wall clock.
        self._wall_clock_names: Set[str] = set()
        #: Local names currently known to be bound to sets.
        self._set_names: Set[str] = set()

    def _add(self, rule_id: str, node: ast.AST, message: str) -> None:
        rule = self._rules[rule_id]
        line = getattr(node, "lineno", 0)
        self.findings.append(Finding(
            rule=rule_id, path=self.ctx.path, line=line, message=message,
            source=self.ctx.source_line(line),
            severity=rule.default_severity,
            fix_hint=rule.default_fix_hint))

    # -- imports feeding the wall-clock rule --------------------------------

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        """Track wall-clock names imported from ``time``."""
        if node.module == "time":
            for alias in node.names:
                if alias.name in _TIME_ATTRS:
                    self._wall_clock_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- calls: RNG rules, wall-clock, heap pushes --------------------------

    def visit_Call(self, node: ast.Call) -> None:
        """Apply the RNG and heap-tiebreak rules to one call."""
        func = node.func
        tail = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else "")
        if tail == "default_rng" and not node.args and not node.keywords:
            self._add("unseeded-rng", node,
                      "np.random.default_rng() without an explicit seed")
        if tail == "Random" and not node.args and not node.keywords:
            base = func.value if isinstance(func, ast.Attribute) else None
            if base is None or (isinstance(base, ast.Name)
                                and base.id == "random"):
                self._add("unseeded-rng", node,
                          "random.Random() without an explicit seed")
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "random"
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in ("np", "numpy")
                and func.attr not in ("default_rng", "Generator",
                                      "SeedSequence", "PCG64", "Philox")):
            self._add("global-rng", node,
                      f"legacy global-state RNG np.random.{func.attr}(...)")
        if tail == "heappush" and len(node.args) == 2:
            item = node.args[1]
            if isinstance(item, ast.Tuple) and len(item.elts) == 2:
                self._add(
                    "heap-tiebreak", node,
                    "heappush of a (time, payload) pair: same-timestamp "
                    "entries fall through to comparing payloads")
        self.generic_visit(node)

    # -- attribute/name reads: wall clock -----------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        """Apply the wall-clock rule to attribute reads."""
        if self.check_wall_clock:
            value = node.value
            if (isinstance(value, ast.Name) and value.id == "time"
                    and node.attr in _TIME_ATTRS):
                self._add("wall-clock", node,
                          f"wall-clock read time.{node.attr} in "
                          f"simulator core")
            if node.attr in _DATETIME_ATTRS:
                base = value
                if (isinstance(base, ast.Name) and base.id == "datetime") or (
                        isinstance(base, ast.Attribute)
                        and base.attr == "datetime"):
                    self._add("wall-clock", node,
                              f"wall-clock read datetime.{node.attr} "
                              f"in simulator core")
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        """Flag uses of names imported from the wall clock."""
        if (self.check_wall_clock and isinstance(node.ctx, ast.Load)
                and node.id in self._wall_clock_names):
            self._add("wall-clock", node,
                      f"wall-clock read {node.id} (imported from time) "
                      f"in simulator core")
        self.generic_visit(node)

    # -- set iteration -------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Track this function's set-valued locals, then descend."""
        self._with_set_names(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        """Async variant of :meth:`visit_FunctionDef`."""
        self._with_set_names(node)

    def _with_set_names(self, node) -> None:
        previous = self._set_names
        self._set_names = previous | set(local_bindings(node).sets)
        self.generic_visit(node)
        self._set_names = previous

    def _check_iterable(self, iterable: ast.AST) -> None:
        if _is_set_expr(iterable):
            self._add("unordered-iter", iterable,
                      "iterating directly over a set; order depends on "
                      "hashing")
        elif (isinstance(iterable, ast.Name)
              and iterable.id in self._set_names):
            self._add("unordered-iter", iterable,
                      f"iterating over set-valued local '{iterable.id}'; "
                      f"order depends on hashing")

    def visit_For(self, node: ast.For) -> None:
        """Apply the unordered-iter rule to for-loops."""
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            self._check_iterable(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
