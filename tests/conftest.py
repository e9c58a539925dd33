"""Fixtures shared across the test modules."""

import pytest


@pytest.fixture(scope="session")
def paper_results():
    """Every experiment at its defaults: the run REPORT.md renders."""
    from repro.analysis.report import run_experiments

    return run_experiments()
