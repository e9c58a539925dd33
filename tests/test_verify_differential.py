"""Differential checks: fast-path equivalences hold, and would fail."""

import numpy as np

from repro.measure.sampler import PiecewiseLinearSignal, TraceSampler
from repro.verify.differential import (
    DiffCheck,
    check_adaptive_plain_equivalence,
    check_sampler_bitwise,
    run_all,
)
from repro.verify.digest import diff_documents


class TestSamplerBitwise:
    def test_vectorized_matches_scalar_on_real_traces(self):
        check = check_sampler_bitwise()
        assert check.ok, check.render()

    def test_a_broken_fast_path_would_be_caught(self):
        """Sanity-check the method: a signal whose vectorized path
        disagrees with its scalar path by one ULP must not compare
        equal under the bitwise comparison the check uses."""
        signal = PiecewiseLinearSignal(np.array([0.0, 10.0]),
                                       np.array([1.0, 2.0]))
        grid = np.linspace(0.0, 10.0, 64)
        sampler = TraceSampler()
        fast = sampler.evaluate(signal, grid) * (1.0 + 2**-52)
        reference = sampler.evaluate(lambda t: signal(t), grid)
        assert not np.array_equal(fast, reference)


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
            "sampler-bitwise", "adaptive-plain-equivalence"]
        assert all(check.ok for check in checks)

    def test_render_shows_detail_on_mismatch(self):
        check = DiffCheck(name="x", ok=False, detail=["a -> b"])
        rendered = check.render()
        assert "MISMATCH" in rendered and "a -> b" in rendered
