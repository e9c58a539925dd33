"""The docstring gate, enforced with ``ast`` alone.

It counts the surface CI's ``interrogate -c pyproject.toml`` counts:
every module, class, function, method and property under ``src/repro``,
single-underscore ones included (``ignore-semiprivate = false``), but
not magic methods (``ignore-magic``, which covers ``__init__``),
``__private`` names (``ignore-private``) or functions nested in
functions (``ignore-nested-functions``).  Coverage over that surface
must reach pyproject's ``fail-under``, and the public part of it, where
no name on the path starts with ``_``, must be fully documented.
"""

import ast
import os

import pytest

SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src", "repro")

FAIL_UNDER = 98.0  # keep in sync with [tool.interrogate] in pyproject.toml


def iter_source_files(root=SRC_ROOT):
    """Every ``.py`` file under ``root`` (default ``src/repro``)."""
    for dirpath, _, filenames in os.walk(root):
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def iter_definitions(path, root=SRC_ROOT):
    """(qualname, node, is_public) for each docstring target counted."""
    tree = ast.parse(open(path, encoding="utf-8").read(), filename=path)
    rel = os.path.relpath(path, root)
    yield rel, tree, True

    def walk(node, prefix, parent_public, in_function):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                yield from walk(child, prefix, parent_public, in_function)
                continue
            name = f"{prefix}.{child.name}"
            public = parent_public and not child.name.startswith("_")
            is_function = not isinstance(child, ast.ClassDef)
            if not (child.name.startswith("__") or (is_function
                                                    and in_function)):
                yield name, child, public
            yield from walk(child, name, public, in_function or is_function)

    yield from walk(tree, rel, True, False)


def has_docstring(node):
    """True when the node's first statement is a string literal."""
    return ast.get_docstring(node) is not None


def collect(root=SRC_ROOT, public_only=False):
    """(total, documented, missing) over the counted surface under ``root``."""
    total = 0
    documented = 0
    missing = []
    for path in iter_source_files(root):
        for qualname, node, public in iter_definitions(path, root):
            if public_only and not public:
                continue
            total += 1
            if has_docstring(node):
                documented += 1
            else:
                missing.append(qualname)
    return total, documented, missing


def test_public_surface_fully_documented():
    """Every public module/class/function under src/repro has a docstring."""
    _, _, missing = collect(public_only=True)
    assert not missing, (
        f"{len(missing)} undocumented public definitions: {missing[:20]}")


def test_coverage_meets_configured_floor():
    """Counted coverage stays at or above pyproject's fail-under floor."""
    total, documented, missing = collect()
    assert total > 500, "AST walk found suspiciously few definitions"
    coverage = 100.0 * documented / total
    assert coverage >= FAIL_UNDER, (
        f"docstring coverage {coverage:.1f}% < {FAIL_UNDER}%; "
        f"missing: {missing[:20]}")


UNDOCUMENTED = {
    "module": ("mod.py", '''
class Widget:
    """Documented."""
'''),
    "class": ("mod.py.Widget", '''"""Module."""
class Widget:
    pass
'''),
    "function": ("mod.py.spin", '''"""Module."""
def spin():
    pass
'''),
    "method": ("mod.py.Widget.spin", '''"""Module."""
class Widget:
    """Documented."""
    def spin(self):
        pass
'''),
    "semiprivate": ("mod.py._spin", '''"""Module."""
def _spin():
    pass
'''),
    "property": ("mod.py.Widget.size", '''"""Module."""
class Widget:
    """Documented."""
    @property
    def size(self):
        return 1
'''),
}


@pytest.mark.parametrize("kind", sorted(UNDOCUMENTED))
def test_each_kind_of_undocumented_definition_is_reported(kind, tmp_path):
    """A module, class, function, method or property without a docstring."""
    qualname, source = UNDOCUMENTED[kind]
    (tmp_path / "mod.py").write_text(source, encoding="utf-8")
    _, _, missing = collect(str(tmp_path))
    assert missing == [qualname]


def test_private_magic_and_nested_definitions_are_not_counted(tmp_path):
    (tmp_path / "mod.py").write_text('''"""Module."""
def __helper():
    pass
class Widget:
    """Documented."""
    def __len__(self):
        return 0
    def __init__(self):
        pass
    def spin(self):
        """Documented."""
        def inner():
            pass
''', encoding="utf-8")
    assert collect(str(tmp_path)) == (3, 3, [])


def test_semiprivate_paths_count_but_are_not_public(tmp_path):
    (tmp_path / "mod.py").write_text('''"""Module."""
class _Private:
    def method(self):
        pass
''', encoding="utf-8")
    missing = ["mod.py._Private", "mod.py._Private.method"]
    assert collect(str(tmp_path)) == (3, 1, missing)
    assert collect(str(tmp_path), public_only=True) == (1, 1, [])
