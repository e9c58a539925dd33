"""API quality gates: docstrings and export hygiene across the package."""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro", "repro.isa", "repro.pdn", "repro.pmu", "repro.microarch",
    "repro.soc", "repro.measure", "repro.core", "repro.core.baselines",
    "repro.mitigations", "repro.analysis", "repro.runner", "repro.faults",
    "repro.obs", "repro.verify",
]


def iter_modules():
    """Every module in the package, imported."""
    seen = []
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        seen.append(package)
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                name = f"{package_name}.{info.name}"
                if not info.ispkg:
                    seen.append(importlib.import_module(name))
    return seen


def public_members(module):
    """Public classes and functions defined in (not imported into) a module."""
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(member) or inspect.isfunction(member)):
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue
        yield name, member


class TestDocstrings:
    def test_every_module_has_a_docstring(self):
        for module in iter_modules():
            assert module.__doc__ and module.__doc__.strip(), module.__name__

    def test_every_public_class_and_function_documented(self):
        missing = []
        for module in iter_modules():
            for name, member in public_members(module):
                if not (member.__doc__ and member.__doc__.strip()):
                    missing.append(f"{module.__name__}.{name}")
        assert not missing, f"undocumented public API: {missing}"

    def test_public_methods_documented(self):
        missing = []
        for module in iter_modules():
            for _, member in public_members(module):
                if not inspect.isclass(member):
                    continue
                for method_name, method in vars(member).items():
                    if method_name.startswith("_"):
                        continue
                    if not (inspect.isfunction(method)
                            or isinstance(method, property)):
                        continue
                    target = method.fget if isinstance(method, property) else method
                    if target is None:
                        continue
                    if not (target.__doc__ and target.__doc__.strip()):
                        missing.append(
                            f"{module.__name__}.{member.__name__}.{method_name}"
                        )
        assert not missing, f"undocumented public methods: {missing}"


class TestExports:
    def test_all_lists_resolve(self):
        for package_name in PACKAGES:
            package = importlib.import_module(package_name)
            exported = getattr(package, "__all__", [])
            for name in exported:
                assert hasattr(package, name), f"{package_name}.{name}"

    def test_top_level_version(self):
        assert repro.__version__ == "1.0.0"
