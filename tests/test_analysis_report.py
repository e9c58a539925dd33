"""Report generator and text rendering."""

from pathlib import Path

import pytest

from repro.analysis import report as report_module
from repro.analysis.figures import ascii_bars, format_table
from repro.analysis.report import main, render_report, render_section
from repro.errors import MeasurementError

REPORT = (Path(__file__).resolve().parents[1] / "REPORT.md").read_text(
    encoding="utf-8")
SECTIONS = ("fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
            "fig13", "fig14", "table1", "table2")


class TestFigureRendering:
    def test_ascii_bars_scale_to_max(self):
        text = ascii_bars([("a", 10.0), ("b", 5.0)], width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_ascii_bars_rejects_empty(self):
        with pytest.raises(MeasurementError):
            ascii_bars([])

    def test_format_table_aligns_columns(self):
        text = format_table(["name", "v"], [["long-name", 1], ["x", 22]])
        lines = text.splitlines()
        assert len({line.index("1") if "1" in line else None
                    for line in lines[2:]}) >= 1
        assert lines[1].startswith("----")

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(MeasurementError):
            format_table(["a", "b"], [["only-one"]])


class TestReportGenerator:
    def test_quick_report_contains_every_artifact(self, paper_results):
        report = render_report(paper_results)
        for heading in ("Figure 6", "Figure 7", "Figure 8", "Figure 9",
                        "Figure 10", "Figure 11", "Figure 12", "Figure 13",
                        "Figure 14", "Table 1", "Table 2"):
            assert heading in report, heading

    @pytest.mark.parametrize("name", SECTIONS)
    def test_section_is_report_md_section(self, name, paper_results):
        section = render_section(name, getattr(paper_results, name))
        assert section.startswith("## ")
        assert section in REPORT

    def test_cli_writes_file(self, tmp_path, monkeypatch, capsys,
                             paper_results):
        monkeypatch.setattr(report_module, "run_experiments",
                            lambda: paper_results)
        assert main([]) == 0
        assert capsys.readouterr().out == REPORT
        target = tmp_path / "report.md"
        assert main(["-o", str(target)]) == 0
        assert target.read_text() == REPORT
