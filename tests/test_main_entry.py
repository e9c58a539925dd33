"""Package entry point (`python -m repro`)."""

import pytest

from repro.__main__ import main
from repro.obs import tracing


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

    def test_matrix_cache_dir_warm_rerun_executes_nothing(self, tmp_path,
                                                          capsys):
        argv = ["--mitigation-matrix", "smoke",
                "--cache-dir", str(tmp_path)]
        runs = []
        for _ in range(2):
            with tracing() as tr:
                code = main(argv)
            counters = tr.metrics.counters
            runs.append((code, capsys.readouterr().out,
                         counters["runner.executed"].value,
                         counters["runner.cache_hits"].value))
        (cold_code, cold_out, cold_executed, _), warm = runs
        assert warm == (cold_code, cold_out, 0, 9)
        assert cold_executed == 9
