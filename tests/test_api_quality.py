"""API quality gates: export hygiene and the import set of the package.

Docstrings are gated by ``tests/test_docstring_coverage.py``.
"""

import importlib
import os
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
