"""SARIF 2.1.0 output: structure, schema validation, fingerprints."""

import json
import textwrap

import pytest

from repro.staticcheck import analyze_source, to_sarif
from repro.staticcheck.model import Report
from repro.staticcheck.reporters import SARIF_VERSION, TOOL_NAME

#: A vendored subset of the SARIF 2.1.0 schema covering everything the
#: GitHub code-scanning ingestion requires of our output.  The official
#: schema is ~4000 lines and network-fetched; this captures the
#: constraints that actually gate upload: versioning, the tool driver,
#: rule metadata, and per-result location/fingerprint shape.
SARIF_SUBSET_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "$schema": {"type": "string", "format": "uri"},
        "version": {"const": "2.1.0"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                },
                                                "defaultConfiguration": {
                                                    "type": "object",
                                                    "properties": {
                                                        "level": {"enum": [
                                                            "none", "note",
                                                            "warning",
                                                            "error"]},
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["ruleId", "message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {"type": "integer",
                                              "minimum": 0},
                                "level": {"enum": ["none", "note",
                                                   "warning", "error"]},
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                    "properties": {
                                        "text": {"type": "string",
                                                 "minLength": 1},
                                    },
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "required": ["uri"],
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type":
                                                                    "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                                "partialFingerprints": {
                                    "type": "object",
                                    "additionalProperties": {
                                        "type": "string"},
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}

BAD_MODULE = textwrap.dedent("""
    \"\"\"Fixture tripping dimensional and determinism rules.\"\"\"
    import heapq


    def schedule(heap, time_ns: float, handle: object, idle_us: float) -> float:
        \"\"\"Mixes units and pushes an untiebroken heap entry.\"\"\"
        heapq.heappush(heap, (time_ns, handle))
        return time_ns + idle_us
""")


def sarif_of(source, path="repro/core/example_mod.py"):
    """The SARIF log of one analysed snippet."""
    findings = analyze_source(textwrap.dedent(source), path)
    return to_sarif(Report(findings=findings, files_analyzed=1))


class TestSarifStructure:
    def test_log_shape(self):
        log = sarif_of(BAD_MODULE)
        assert log["version"] == SARIF_VERSION
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == TOOL_NAME
        assert len(run["results"]) >= 2

    def test_rule_catalog_covers_results(self):
        log = sarif_of(BAD_MODULE)
        run = log["runs"][0]
        catalog = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        for result in run["results"]:
            assert result["ruleId"] in catalog
            assert catalog[result["ruleIndex"]] == result["ruleId"]

    def test_locations_and_levels(self):
        log = sarif_of(BAD_MODULE)
        for result in log["runs"][0]["results"]:
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"].endswith(".py")
            assert location["region"]["startLine"] >= 1
            assert result["level"] in ("note", "warning", "error")

    def test_fingerprints_are_stable_across_line_shifts(self):
        log_a = sarif_of(BAD_MODULE)
        log_b = sarif_of("\n\n\n" + BAD_MODULE)

        def prints(log):
            return sorted(
                r["partialFingerprints"]["repro/staticcheck/v1"]
                for r in log["runs"][0]["results"])

        assert prints(log_a) == prints(log_b)

    def test_serialises_to_json(self):
        json.dumps(sarif_of(BAD_MODULE))

    def test_empty_report_is_valid(self):
        log = to_sarif(Report(files_analyzed=0))
        assert log["runs"][0]["results"] == []


class TestSarifInvocationAndTiming:
    """Execution status + per-pass timing surfaced for CI dashboards."""

    def _file_log(self, tmp_path):
        from repro.staticcheck import analyze_paths

        src = tmp_path / "bad_mod.py"
        src.write_text(BAD_MODULE, encoding="utf-8")
        report = analyze_paths(paths=[src], waivers=[])
        return to_sarif(report)

    def test_invocation_reports_execution_success(self):
        failing = sarif_of(BAD_MODULE)
        assert failing["runs"][0]["invocations"][0][
            "executionSuccessful"] is False
        clean = to_sarif(Report(files_analyzed=3))
        assert clean["runs"][0]["invocations"][0][
            "executionSuccessful"] is True

    def test_run_properties_carry_timings(self, tmp_path):
        run = self._file_log(tmp_path)["runs"][0]
        properties = run["properties"]
        assert properties["filesAnalyzed"] == 1
        timing_passes = {t["pass"] for t in properties["timings"]}
        assert {"dimensional", "determinism", "hygiene",
                "poolsafety"} <= timing_passes
        for timing in properties["timings"]:
            assert timing["wallMs"] >= 0.0
            assert timing["modules"] == 1

    def test_rules_carry_owning_pass_and_wall_time(self, tmp_path):
        run = self._file_log(tmp_path)["runs"][0]
        by_id = {r["id"]: r for r in run["tool"]["driver"]["rules"]}
        assert by_id["unit-mix"]["properties"]["pass"] == "dimensional"
        assert by_id["heap-tiebreak"]["properties"]["pass"] == "determinism"
        for rule in by_id.values():
            assert rule["properties"]["passWallMs"] >= 0.0

    def test_enriched_log_still_validates(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(self._file_log(tmp_path), SARIF_SUBSET_SCHEMA)


class TestSarifSchema:
    def test_validates_against_sarif_subset_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(sarif_of(BAD_MODULE), SARIF_SUBSET_SCHEMA)

    def test_empty_log_validates(self):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(to_sarif(Report(files_analyzed=0)),
                            SARIF_SUBSET_SCHEMA)
