"""Package entry point (`python -m repro`)."""

import pytest

from repro.__main__ import main


class TestMainDemo:
    def test_demo_runs_clean(self, capsys):
        assert main() == 0
        out = capsys.readouterr().out
        assert "IChannels demo" in out
        assert out.count("[OK]") == 3
        assert "[FAILED]" not in out

    def test_runner_flags_need_mitigation_matrix(self, tmp_path):
        for argv in (["--jobs", "2"], ["--cache-dir", str(tmp_path)]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
