"""Fixture tests for the goldenflow pass.

Every rule gets at least one *bad* fixture it must flag and one *good*
fixture (the idiomatic fix) it must leave alone, so rule regressions
show up as a named fixture, not as a silent hole in the CI gate.
"""

import textwrap

from repro.staticcheck import analyze_source


def golden_findings(source, path="repro/scenarios/example_mod.py"):
    """Goldenflow findings for one snippet."""
    return analyze_source(textwrap.dedent(source), path,
                          rules=["goldenflow"])


def rules_of(findings):
    """The set of rule ids a fixture tripped."""
    return {f.rule for f in findings}


ROUNDTRIP_GOOD = """
    from dataclasses import dataclass
    from typing import Any, Dict, Mapping


    @dataclass(frozen=True)
    class WidgetSpec:
        depth: int = 0
        policy: str = "serialized"

        @classmethod
        def from_mapping(cls, mapping: Mapping[str, Any]) -> "WidgetSpec":
            return cls(depth=int(mapping.get("depth", 0)),
                       policy=str(mapping.get("policy", "serialized")))

        def to_mapping(self) -> Dict[str, Any]:
            return {"depth": self.depth, "policy": self.policy}
"""


class TestGoldenRoundtrip:
    def test_complete_roundtrip_clean(self):
        assert golden_findings(ROUNDTRIP_GOOD) == []

    def test_field_missing_from_to_mapping_flagged(self):
        findings = golden_findings("""
            from dataclasses import dataclass
            from typing import Any, Dict, Mapping


            @dataclass(frozen=True)
            class WidgetSpec:
                depth: int = 0
                policy: str = "serialized"

                @classmethod
                def from_mapping(cls, mapping):
                    return cls(depth=int(mapping.get("depth", 0)),
                               policy=str(mapping.get("policy", "x")))

                def to_mapping(self) -> Dict[str, Any]:
                    return {"depth": self.depth}
        """)
        assert rules_of(findings) == {"golden-roundtrip"}
        assert any("'policy'" in f.message and "to_mapping" in f.message
                   for f in findings)

    def test_field_missing_from_from_mapping_flagged(self):
        findings = golden_findings("""
            from dataclasses import dataclass
            from typing import Any, Dict, Mapping


            @dataclass(frozen=True)
            class WidgetSpec:
                depth: int = 0
                policy: str = "serialized"

                @classmethod
                def from_mapping(cls, mapping):
                    return cls(depth=int(mapping.get("depth", 0)))

                def to_mapping(self) -> Dict[str, Any]:
                    return {"depth": self.depth, "policy": self.policy}
        """)
        assert rules_of(findings) == {"golden-roundtrip"}
        assert any("'policy'" in f.message and "from_mapping" in f.message
                   for f in findings)

    def test_generic_fields_iteration_covers_everything(self):
        findings = golden_findings("""
            from dataclasses import dataclass, fields
            from typing import Any, Dict, Mapping


            @dataclass(frozen=True)
            class WidgetSpec:
                depth: int = 0
                policy: str = "serialized"

                @classmethod
                def from_mapping(cls, mapping):
                    names = tuple(f.name for f in fields(cls))
                    return cls(**{n: mapping.get(n) for n in names})

                def to_mapping(self) -> Dict[str, Any]:
                    return {f.name: getattr(self, f.name)
                            for f in fields(self)}
        """)
        assert findings == []


class TestGoldenEmit:
    def test_unpinned_conditional_emission_flagged(self):
        findings = golden_findings("""
            from dataclasses import dataclass, fields
            from typing import Any, Dict


            @dataclass(frozen=True)
            class WidgetSpec:
                depth: int = 0
                extra: bool = False

                @classmethod
                def from_mapping(cls, mapping):
                    names = tuple(f.name for f in fields(cls))
                    return cls(**{n: mapping.get(n) for n in names})

                def to_mapping(self) -> Dict[str, Any]:
                    mapping = {f.name: getattr(self, f.name)
                               for f in fields(self)}
                    if not mapping["extra"]:
                        del mapping["extra"]
                    return mapping
        """)
        assert rules_of(findings) == {"golden-emit"}
        assert any("'extra'" in f.message for f in findings)

    def test_unconditional_unknown_class_clean(self):
        assert golden_findings(ROUNDTRIP_GOOD) == []

    def test_pinned_class_with_extra_unconditional_key_flagged(self):
        findings = golden_findings("""
            from dataclasses import dataclass, fields
            from typing import Any, Dict


            @dataclass(frozen=True)
            class NoiseSpec:
                interrupt_rate_per_s: float = 500.0
                interrupt_mean_us: float = 3.0
                ctx_switch_rate_per_s: float = 100.0
                ctx_switch_mean_us: float = 25.0
                horizon_ms: float = 50.0
                seed: int = 1
                new_knob: float = 0.0

                @classmethod
                def from_mapping(cls, mapping):
                    names = tuple(f.name for f in fields(cls))
                    return cls(**{n: mapping[n] for n in names
                                  if n in mapping})

                def to_mapping(self) -> Dict[str, Any]:
                    return {f.name: getattr(self, f.name)
                            for f in fields(self)}
        """)
        assert rules_of(findings) == {"golden-emit"}
        assert any("'new_knob'" in f.message for f in findings)

    def test_pinned_key_made_conditional_flagged(self):
        findings = golden_findings("""
            from dataclasses import dataclass
            from typing import Any, Dict


            @dataclass(frozen=True)
            class TenantSpec:
                channel: str
                sender_core: int
                receiver_core: int
                offset_fraction: float = 0.0

                @classmethod
                def from_mapping(cls, mapping):
                    return cls(
                        channel=str(mapping["channel"]),
                        sender_core=int(mapping["sender_core"]),
                        receiver_core=int(mapping["receiver_core"]),
                        offset_fraction=float(
                            mapping.get("offset_fraction", 0.0)))

                def to_mapping(self) -> Dict[str, Any]:
                    mapping = {"channel": self.channel,
                               "sender_core": self.sender_core,
                               "receiver_core": self.receiver_core,
                               "offset_fraction": self.offset_fraction}
                    if not self.offset_fraction:
                        del mapping["offset_fraction"]
                    return mapping
        """)
        assert rules_of(findings) == {"golden-emit"}
        assert any("'offset_fraction'" in f.message
                   and "no longer unconditionally" in f.message
                   for f in findings)


class TestRealTreeIsClean:
    def test_scenarios_pass_goldenflow(self):
        from repro.staticcheck import analyze_paths
        from repro.staticcheck.runner import default_root

        report = analyze_paths(paths=[default_root() / "scenarios"],
                               rules=["goldenflow"])
        assert report.findings == [], \
            [f.render() for f in report.findings]
