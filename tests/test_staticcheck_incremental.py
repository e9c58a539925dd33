"""Rule/pass selection and the CLI's stale-waiver exit and JSON timings."""

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
        rules = expand_selection(["determinism"])
        assert "heap-tiebreak" in rules
        assert "wall-clock" in rules

    def test_mixed_selection_dedupes(self):
        rules = expand_selection(["determinism", "heap-tiebreak"])
        assert rules.count("heap-tiebreak") == 1

    def test_unknown_name_lists_both_namespaces(self):
        with pytest.raises(ConfigError, match="valid passes"):
            expand_selection(["no-such-thing"])


class TestCliIncrementalFlags:
    def test_stale_waiver_exits_one(self, tmp_path, capsys):
        """A waiver that no longer matches fails the run, naming itself."""
        src = tmp_path / "bad_mod.py"
        src.write_text(BAD_MODULE, encoding="utf-8")
        waivers = tmp_path / "waivers.txt"
        waivers.write_text("unit-mix bad_mod.py\n", encoding="utf-8")
        argv = [str(src), "--rule", "unit-mix", "--waivers", str(waivers)]
        assert main(argv) == 0
        capsys.readouterr()
        src.write_text(CLEAN_MODULE, encoding="utf-8")
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "unused waiver 'unit-mix bad_mod.py'" in out
        assert "0 finding(s)" in out

    def test_waiver_for_a_module_not_analysed_is_not_stale(self, tmp_path,
                                                           capsys):
        src = tmp_path / "clean_mod.py"
        src.write_text(CLEAN_MODULE, encoding="utf-8")
        waivers = tmp_path / "waivers.txt"
        waivers.write_text("unit-mix other_mod.py\n", encoding="utf-8")
        assert main([str(src), "--waivers", str(waivers)]) == 0
        assert "unused waiver" not in capsys.readouterr().out

    def test_json_report_carries_timings(self, tmp_path, capsys):
        src = tmp_path / "bad_mod.py"
        src.write_text(BAD_MODULE, encoding="utf-8")
        assert main([str(src), "--no-waivers", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert {t["pass"] for t in payload["timings"]} \
            == {p.name for p in all_passes()}
        assert {t["modules"] for t in payload["timings"]} == {1}
