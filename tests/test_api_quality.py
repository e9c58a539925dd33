"""API quality gates: docstrings and export hygiene across the package."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

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

    def test_lazy_exports_are_the_defining_modules_objects(self):
        checked = 0
        for package_name in PACKAGES:
            package = importlib.import_module(package_name)
            for name, target in vars(package).get("_LAZY", {}).items():
                assert name in package.__all__, f"{package_name}.{name}"
                submodule, _, attr = target.partition(".")
                module = importlib.import_module(
                    f"{package_name}.{submodule}")
                assert getattr(package, name) is getattr(
                    module, attr or name), f"{package_name}.{name}"
                assert name in dir(package)
                checked += 1
        assert checked > 0

    def test_unknown_name_raises_attribute_error(self):
        import repro.core

        with pytest.raises(AttributeError, match="no_such_name"):
            repro.core.no_such_name

    def test_top_level_version(self):
        assert repro.__version__ == "1.0.0"


#: Modules a covert transfer never runs; importing the package must not
#: load them.
OFF_TRANSFER_PATH = (
    "repro.core.session", "repro.core.ecc", "repro.core.side_channel",
    "repro.soc.feasibility", "repro.soc.noise", "repro.measure.daq",
    "repro.microarch.pipeline", "repro.obs.export",
)


class TestImportSet:
    """``import repro, repro.core`` loads only the covert-transfer path."""

    def test_fresh_interpreter_loads_the_transfer_path_only(self):
        program = ("import sys, repro, repro.core\n"
                   "print('\\n'.join(sorted(sys.modules)))")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-c", program], env=env,
                             capture_output=True, text=True, check=True)
        loaded = [m for m in out.stdout.split()
                  if m == "repro" or m.startswith("repro.")]
        assert len(loaded) <= 40, loaded
        assert not set(OFF_TRANSFER_PATH) & set(loaded)
