"""Experiment runners and rendering for the paper's tables and figures.

:mod:`repro.analysis.experiments` has one entry point per paper artifact
(``fig6`` ... ``fig14``, ``table1``, ``table2``); the benchmark harnesses
under ``benchmarks/`` time these and print their :mod:`repro.analysis.report`
sections.
"""

from repro.analysis.figures import ascii_bars, format_table

__all__ = ["ascii_bars", "format_table"]
