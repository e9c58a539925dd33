"""Rule/pass selection and the CLI's stale-baseline hint and JSON timings."""

import json
import textwrap

import pytest

from repro.errors import ConfigError
from repro.staticcheck.__main__ import main
from repro.staticcheck.registry import all_passes, expand_selection

BAD_MODULE = textwrap.dedent("""
    \"\"\"Fixture with dimensional and determinism findings.\"\"\"
    import heapq


    def schedule(heap, time_ns: float, handle: object, idle_us: float) -> float:
        \"\"\"Mixes units and pushes an untiebroken heap entry.\"\"\"
        heapq.heappush(heap, (time_ns, handle))
        return time_ns + idle_us
""")

CLEAN_MODULE = '"""Clean module."""\n\n\nVALUE = 3\n'


class TestSelectionExpansion:
    def test_pass_name_expands_to_its_rules(self):
        rules = expand_selection(["goldenflow"])
        assert "golden-roundtrip" in rules
        assert "golden-emit" in rules

    def test_mixed_selection_dedupes(self):
        rules = expand_selection(["goldenflow", "golden-emit"])
        assert rules.count("golden-emit") == 1

    def test_unknown_name_lists_both_namespaces(self):
        with pytest.raises(ConfigError, match="valid passes"):
            expand_selection(["no-such-thing"])


class TestCliIncrementalFlags:
    def test_stale_baseline_message_names_rule_path_and_command(
            self, tmp_path, capsys):
        src = tmp_path / "bad_mod.py"
        src.write_text(BAD_MODULE, encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        assert main([str(src), "--no-waivers",
                     "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        src.write_text(CLEAN_MODULE, encoding="utf-8")
        assert main([str(src), "--no-waivers",
                     "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "stale baseline entry" in out
        assert "unit-mix" in out and "bad_mod.py" in out
        assert f"--write-baseline {baseline}" in out

    def test_json_report_carries_timings(self, tmp_path, capsys):
        src = tmp_path / "bad_mod.py"
        src.write_text(BAD_MODULE, encoding="utf-8")
        assert main([str(src), "--no-waivers", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert {t["pass"] for t in payload["timings"]} \
            == {p.name for p in all_passes()}
        assert {t["modules"] for t in payload["timings"]} == {1}
