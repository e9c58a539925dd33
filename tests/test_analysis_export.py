"""CSV export of experiment data."""

import csv
import os

from repro.analysis import experiments as ex
from repro.analysis.export import (
    export_all,
    export_fig10,
    export_fig12,
    main,
)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestWriters:
    def test_fig12_csv_shape(self, tmp_path, paper_results):
        result = paper_results.fig12
        paths = export_fig12(result, str(tmp_path))
        rows = read_csv(paths[0])
        assert rows[0] == ["channel", "throughput_bps", "ber"]
        assert len(rows) == 1 + len(result.throughput_bps)
        channels = {row[0] for row in rows[1:]}
        assert "IccThreadCovert" in channels and "POWERT" in channels

    def test_fig10_csv_shape(self, tmp_path):
        result = ex.fig10_multilevel(freqs=(1.0,), iterations=40)
        paths = export_fig10(result, str(tmp_path))
        sweep_rows = read_csv(paths[0])
        assert sweep_rows[0] == ["class", "freq_ghz", "cores", "tp_us"]
        assert len(sweep_rows) == 1 + len(result.sweep)
        preceded_rows = read_csv(paths[1])
        assert preceded_rows[0] == ["preceding_class", "tp_us", "level"]


class TestExportAll:
    def test_writes_every_artifact(self, tmp_path, paper_results):
        paths = export_all(paper_results, str(tmp_path))
        names = {os.path.basename(p) for p in paths}
        assert names == {
            "fig6_vcc.csv", "fig6_calculix_vcc.csv", "fig7_points.csv",
            "fig7_freq_timeline.csv", "fig8_tp_samples.csv",
            "fig8_iteration_deltas.csv", "fig10_sweep.csv",
            "fig10_preceded.csv", "fig12_throughput.csv",
            "fig13_levels.csv", "fig14_ber.csv", "resilience_ber.csv",
        }
        for path in paths:
            assert len(read_csv(path)) >= 2  # header plus data

    def test_cli(self, tmp_path, capsys, paper_results):
        """The command line exports the paper run REPORT.md renders."""
        out_dir = str(tmp_path / "results")
        assert main(["--out-dir", out_dir]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert all(line.startswith(out_dir) for line in printed)
        tp_rows = read_csv(os.path.join(out_dir, "fig8_tp_samples.csv"))[1:]
        fig8 = paper_results.fig8.tp_us_by_part
        assert len(tp_rows) == sum(map(len, fig8.values())) == 60
        assert tp_rows == [[part, str(tp)] for part, samples in fig8.items()
                           for tp in samples]
        fig14 = paper_results.fig14
        bers = [float(row[2]) for row in
                read_csv(os.path.join(out_dir, "fig14_ber.csv"))[1:]]
        assert bers == [
            *(ber for _, ber in sorted(fig14.ber_vs_event_rate.items())),
            *(ber for _, ber in sorted(fig14.ber_vs_phi_rate.items())),
            fig14.sevenzip_ber]
