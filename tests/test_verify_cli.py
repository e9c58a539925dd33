"""``python -m repro.verify`` CLI behaviour."""

import os
import subprocess
import sys

from repro.verify import report as report_stage
from repro.verify.__main__ import main
from repro.verify.scenarios import compute_digest, scenario_names


def run_cli(*argv, env_extra=None):
    """Run the verify CLI in a subprocess; returns (code, stdout, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(env_extra or {})
    proc = subprocess.run(
        [sys.executable, "-m", "repro.verify", *argv],
        env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


class TestModes:
    def test_list_mode(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_compute_mode_prints_exactly_name_and_digest(self):
        """The audit's subprocess probe parses this output verbatim."""
        code, out, _ = run_cli("--compute", "fig6_slice")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        name, digest = lines[0].split()
        assert name == "fig6_slice"
        assert digest == compute_digest("fig6_slice")

    def test_update_goldens_round_trip(self, tmp_path, capsys):
        """--update-goldens then a goldens-only check passes."""
        assert main(["--update-goldens", "--scenario", "fig6_slice",
                     "--goldens-dir", str(tmp_path)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["--scenario", "fig6_slice",
                     "--goldens-dir", str(tmp_path),
                     "--skip-lint", "--skip-differential",
                     "--skip-audit"]) == 0
        assert "ok       fig6_slice" in capsys.readouterr().out

    def test_missing_golden_fails_the_gate(self, tmp_path, capsys):
        code = main(["--scenario", "fig6_slice",
                     "--goldens-dir", str(tmp_path),
                     "--skip-lint", "--skip-differential", "--skip-audit"])
        assert code == 1
        assert "MISSING" in capsys.readouterr().out

    def test_fast_full_gate_passes(self, capsys):
        """Lint, differential, fast goldens, the report, in-process audit."""
        code = main(["--scenario", "fig6_slice", "--scenario", "fig8_slice",
                     "--no-subprocess-audit"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "all stages passed" in out
        assert "lint clean" in out
        assert "ok       REPORT.md" in out


class TestReportStage:
    def test_drift_names_first_line_and_command(self, tmp_path, monkeypatch):
        path = tmp_path / "REPORT.md"
        path.write_text("# title\nold row\ntail\n", encoding="utf-8")
        monkeypatch.setattr(report_stage, "generate_report",
                            lambda: "# title\nnew row\ntail\n")
        check = report_stage.check_report(path)
        assert not check.ok
        rendered = check.render()
        assert "line 2: 'old row\\n' -> 'new row\\n'" in rendered
        assert report_stage.REGENERATE in rendered

    def test_truncated_file_is_drift(self, tmp_path, monkeypatch):
        path = tmp_path / "REPORT.md"
        path.write_text("a\n", encoding="utf-8")
        monkeypatch.setattr(report_stage, "generate_report",
                            lambda: "a\nb\n")
        check = report_stage.check_report(path)
        assert not check.ok
        assert "line 2: file has 1 lines, fresh report has 2" in check.detail

    def test_missing_file_is_drift(self, tmp_path):
        check = report_stage.check_report(tmp_path / "REPORT.md")
        assert not check.ok
        assert "not found" in check.detail
