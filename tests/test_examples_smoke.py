"""Every example runs standalone: ``python examples/<name>.py``.

Regression test for the documented invocation in README.md.  The
examples must work without the package installed and without
``PYTHONPATH`` (they carry ``import _pathfix`` for that), so each runs
in a clean subprocess from the repository root with ``PYTHONPATH``
stripped.
"""

import os
import re
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES_DIR = os.path.join(REPO_ROOT, "examples")

EXAMPLES = sorted(
    name for name in os.listdir(EXAMPLES_DIR)
    if name.endswith(".py") and not name.startswith("_")
)


def _readme_examples():
    """The ``python examples/<name>.py`` lines of README's example block."""
    with open(os.path.join(REPO_ROOT, "README.md")) as fh:
        readme = fh.read()
    block = readme.split("Runnable examples", 1)[1].split("```bash", 1)[1]
    block = block.split("```", 1)[0]
    return sorted(re.findall(r"^python examples/(\S+\.py)", block, re.M))


def test_examples_discovered():
    """README's runnable-examples block lists exactly the example files."""
    assert "quickstart.py" in EXAMPLES
    assert EXAMPLES == _readme_examples()


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs_standalone(name):
    """``python examples/<name>.py`` exits 0 and prints something."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    result = subprocess.run(
        [sys.executable, os.path.join("examples", name)],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, (
        f"{name} failed:\n{result.stdout}\n{result.stderr}")
    assert result.stdout.strip(), f"{name} printed nothing"
