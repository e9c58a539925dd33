"""Differential checks: the equivalence holds, and a break would show."""

from repro.verify.differential import (
    DiffCheck,
    check_adaptive_plain_equivalence,
    run_all,
)
from repro.verify.digest import diff_documents


class TestAdaptiveEquivalence:
    def test_adaptive_session_is_inert_without_faults(self):
        check = check_adaptive_plain_equivalence()
        assert check.ok, check.render()

    def test_differences_would_be_reported_leafwise(self):
        plain = {"frames": [{"attempts": 1}], "end_ns": 100.0}
        adaptive = {"frames": [{"attempts": 2}], "end_ns": 130.0}
        lines = diff_documents(plain, adaptive)
        assert any("frames[0].attempts: 1 -> 2" in line for line in lines)


class TestRunAll:
    def test_run_all_names_and_order(self):
        checks = run_all()
        assert [check.name for check in checks] == [
            "adaptive-plain-equivalence"]
        assert all(check.ok for check in checks)

    def test_render_shows_detail_on_mismatch(self):
        check = DiffCheck(name="x", ok=False, detail=["a -> b"])
        rendered = check.render()
        assert "MISMATCH" in rendered and "a -> b" in rendered
