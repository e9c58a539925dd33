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
    "repro.obs", "repro.verify", "repro.scenarios",
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


#: Modules a covert transfer never runs; importing the package and
#: running a transfer must not load them.
OFF_TRANSFER_PATH = (
    "repro.core.session", "repro.core.ecc", "repro.core.side_channel",
    "repro.soc.feasibility", "repro.soc.noise", "repro.measure.daq",
    "repro.microarch.pipeline", "repro.obs.export",
)


def _fresh_interpreter_modules(program):
    """Names in ``sys.modules`` after ``program`` runs in a new interpreter."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    program += "\nprint('\\n'.join(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", program], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.split()


#: Modules the mitigation matrix never runs; importing it must not load
#: them.
OFF_MATRIX_PATH = (
    "numpy", "concurrent.futures", "repro.scenarios.docsgen",
    "repro.mitigations.detector", "repro.mitigations.report",
)

#: ``task_key(math.fsum, {"a": np.arange(3.0)}, version="v")`` as the
#: cache has always computed it; a changed value orphans every cached
#: sweep that takes an array parameter.
ARRAY_TASK_KEY = (
    "6b4aff0917f78d8c7d02b42d32ee1534b6b0cdf5fe3f6619bdaa091de533e318")


class TestImportSet:
    """A transfer, the CLI demo and the matrix load no numpy."""

    def test_fresh_interpreter_loads_the_transfer_path_only(self):
        # One 2-byte transfer per channel, then the loaded module names.
        modules = _fresh_interpreter_modules(
            "import sys, repro, repro.core\n"
            "for channel in (repro.core.IccThreadCovert, "
            "repro.core.IccSMTcovert, repro.core.IccCoresCovert):\n"
            "    system = repro.System(repro.cannon_lake_i3_8121u())\n"
            "    assert channel(system).transfer(b'ok').received == b'ok'")
        loaded = [m for m in modules
                  if m == "repro" or m.startswith("repro.")]
        assert len(loaded) <= 40, loaded
        assert not set(OFF_TRANSFER_PATH) & set(loaded)
        assert "numpy" not in modules

    def test_fresh_interpreter_runs_a_faulted_session_without_numpy(self):
        # The default suite (grant-interference bursts included) under
        # an adaptive session; only the DAQ-seam models would need numpy.
        modules = _fresh_interpreter_modules(
            "import sys, repro, repro.core\n"
            "from repro.core.session import (AdaptiveConfig, CovertSession,\n"
            "                                SessionConfig)\n"
            "from repro.faults import parse_fault_spec\n"
            "system = repro.System(repro.cannon_lake_i3_8121u())\n"
            "injector = parse_fault_spec('default:seed=11').attach(system)\n"
            "config = SessionConfig(max_retries=8, adaptive=AdaptiveConfig())\n"
            "report = CovertSession(repro.core.IccCoresCovert(system),\n"
            "                       config).send(b'ok')\n"
            "assert report.total_attempts >= 1\n"
            "assert injector.event_counts()['grant-interference'] > 0")
        assert "repro.faults.models" in modules
        assert "numpy" not in modules

    def test_fresh_interpreter_imports_the_matrix_without_numpy(self):
        modules = _fresh_interpreter_modules(
            "import sys\n"
            "from repro import runner\n"
            "from repro.mitigations import matrix")
        assert "repro.mitigations.matrix.sweep" in modules
        assert not set(OFF_MATRIX_PATH) & set(modules)

    def test_fresh_interpreter_runs_the_cli_demo_without_numpy(self):
        # ``python -m repro`` with its default arguments: three transfers.
        modules = _fresh_interpreter_modules(
            "import contextlib, io, runpy, sys\n"
            "sys.argv = ['repro']\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    try:\n"
            "        runpy.run_module('repro', run_name='__main__',\n"
            "                         alter_sys=True)\n"
            "    except SystemExit as exit:\n"
            "        assert exit.code == 0, exit.code\n"
            "assert out.getvalue().count('[OK]') == 3, out.getvalue()")
        assert "repro.runner.sweep" in modules
        assert "numpy" not in modules

    def test_fresh_interpreter_runs_matrix_cells_without_numpy(self):
        # The verify golden's path: cells without the defender cost run.
        modules = _fresh_interpreter_modules(
            "import sys\n"
            "from repro.mitigations.matrix import run_matrix\n"
            "report = run_matrix(attackers=('plain_cores', 'arq_cores'),\n"
            "                    defenders=('none', 'state_flush'),\n"
            "                    include_costs=False)\n"
            "assert len(report.cells) == 4")
        assert "numpy" not in modules

    def test_cache_imported_before_numpy_still_keys_arrays(self):
        # ``canonicalize`` looks for numpy in ``sys.modules`` instead of
        # importing it; arrays made after the cache loaded must keep
        # their tagged form and their cache keys.
        modules = _fresh_interpreter_modules(
            "import math, sys\n"
            "from repro.runner.cache import canonicalize, task_key\n"
            "assert 'numpy' not in sys.modules\n"
            "import numpy as np\n"
            "assert canonicalize(np.arange(3.0)) == {\n"
            "    '__ndarray__': 'float64', 'shape': [3],\n"
            "    'data': [0.0, 1.0, 2.0]}\n"
            "assert canonicalize(np.array([[1, 2]], dtype=np.int32)) == {\n"
            "    '__ndarray__': 'int32', 'shape': [1, 2], 'data': [1, 2]}\n"
            "scalar = canonicalize(np.float64(1.5))\n"
            "assert scalar == 1.5 and type(scalar) is float\n"
            "assert type(canonicalize(np.int64(3))) is int\n"
            "assert task_key(math.fsum, {'a': np.arange(3.0)},\n"
            f"                version='v') == {ARRAY_TASK_KEY!r}")
        assert "numpy" in modules
