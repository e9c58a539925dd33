"""Cycle-level pipeline model, PMCs and the TSC."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.experiments import fig11_idq_signature
from repro.errors import ConfigError, MeasurementError
from repro.isa import IClass
from repro.microarch import (
    CorePipeline,
    CounterBank,
    PMC,
    PipelineConfig,
    TimestampCounter,
    normalized_undelivered,
)
from repro.verify.digest import content_digest

#: Digest of the ``fig11_idq_signature(200)`` per-iteration fractions as
#: the per-cycle stepper produced them.
FIG11_DIGEST = "f9a7c4d9efb5fa45fd016414b1616ea86600058ce381015abc4296f90253eb59"


class SteppedPipeline(CorePipeline):
    """Reference oracle: the pipeline advanced one cycle at a time.

    ``CorePipeline.run`` advances in closed form; this is the per-cycle
    definition of the model it must match on every counter and every
    piece of internal state.
    """

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self._step()

    def _gate_blocks(self, tid: int) -> bool:
        if not self._throttled:
            return False
        if self._throttled_tids is not None and tid not in self._throttled_tids:
            return False
        return (self._cycle % self.config.throttle_window) >= self.config.throttle_open_cycles

    def _step(self) -> None:
        active = [t for t in self._threads.values() if t.active]
        if not active:
            self._cycle += 1
            return
        self.core_counters.add(PMC.CPU_CLK_UNHALTED, 1)
        if self._throttled:
            self.core_counters.add(PMC.THROTTLE_CYCLES, 1)
        for thread in active:
            thread.counters.add(PMC.CPU_CLK_UNHALTED, 1)
        owner = self._pick_owner(active)
        width = self.config.delivery_width
        if self._gate_blocks(owner.tid):
            self._charge_undelivered(owner, width)
        else:
            delivered = self._deliver(owner, width)
            if delivered < width:
                self._charge_undelivered(owner, width - delivered)
        self._cycle += 1

    def _pick_owner(self, active):
        if len(active) == 1:
            return active[0]
        order = sorted(active, key=lambda t: (t.tid < self._rr_next, t.tid))
        for candidate in order:
            if not self._gate_blocks(candidate.tid):
                self._rr_next = (candidate.tid + 1) % self.config.smt_threads
                return candidate
        chosen = order[0]
        self._rr_next = (chosen.tid + 1) % self.config.smt_threads
        return chosen

    def _deliver(self, thread, width: int) -> int:
        block = self.config.block_instructions
        if thread._block_progress >= block:
            thread._block_progress = 0
            return 0
        deliverable = min(width, block - thread._block_progress)
        thread._block_progress += deliverable
        for bank in (thread.counters, self.core_counters):
            bank.add(PMC.UOPS_DELIVERED, deliverable)
            bank.add(PMC.INSTRUCTIONS_RETIRED, deliverable)
        return deliverable

    def _charge_undelivered(self, owner, slots: int) -> None:
        owner.counters.add(PMC.IDQ_UOPS_NOT_DELIVERED, slots)
        self.core_counters.add(PMC.IDQ_UOPS_NOT_DELIVERED, slots)


def _pipeline_state(pipe: CorePipeline):
    threads = [(t.counters.snapshot(), t._block_progress)
               for t in pipe._threads.values()]
    return (pipe.core_counters.snapshot(), threads, pipe._cycle, pipe._rr_next)


@st.composite
def _configs_and_ops(draw):
    window = draw(st.integers(1, 8))
    config = PipelineConfig(
        delivery_width=draw(st.integers(1, 8)),
        throttle_window=window,
        throttle_open_cycles=draw(st.integers(1, window)),
        smt_threads=draw(st.integers(1, 2)),
        block_instructions=draw(st.integers(2, 400)),
    )
    tids = st.integers(0, config.smt_threads - 1)
    iclasses = st.sampled_from([None, *IClass])
    set_throttle = st.tuples(st.just("set_throttle"), st.booleans(),
                             st.none() | st.sets(tids))
    op = st.one_of(
        st.tuples(st.just("set_thread"), tids, iclasses),
        set_throttle,
        st.tuples(st.just("run"), st.integers(0, 5_000)),
    )
    # Start every thread on a drawn loop under a drawn throttle, so SMT
    # sharing and gating are common from the first run on.
    setup = [("set_thread", tid, draw(iclasses))
             for tid in range(config.smt_threads)]
    setup.append(draw(set_throttle))
    return config, setup + draw(st.lists(op, min_size=1, max_size=8))


class TestCounterBank:
    def test_add_and_read(self):
        bank = CounterBank()
        bank.add(PMC.CPU_CLK_UNHALTED, 100)
        assert bank.read(PMC.CPU_CLK_UNHALTED) == 100

    def test_negative_increment_rejected(self):
        bank = CounterBank()
        with pytest.raises(MeasurementError):
            bank.add(PMC.UOPS_DELIVERED, -1)

    def test_snapshot_delta(self):
        bank = CounterBank()
        bank.add(PMC.CPU_CLK_UNHALTED, 10)
        before = bank.snapshot()
        bank.add(PMC.CPU_CLK_UNHALTED, 5)
        assert bank.delta(before)[PMC.CPU_CLK_UNHALTED] == 5

    def test_reset(self):
        bank = CounterBank()
        bank.add(PMC.UOPS_DELIVERED, 7)
        bank.reset()
        assert bank.read(PMC.UOPS_DELIVERED) == 0

    def test_normalized_undelivered(self):
        delta = {PMC.CPU_CLK_UNHALTED: 100, PMC.IDQ_UOPS_NOT_DELIVERED: 300}
        assert normalized_undelivered(delta) == pytest.approx(0.75)

    def test_normalized_undelivered_requires_cycles(self):
        with pytest.raises(MeasurementError):
            normalized_undelivered({PMC.CPU_CLK_UNHALTED: 0})


class TestTSC:
    def test_read_scales_with_rate(self):
        tsc = TimestampCounter(2.2)
        assert tsc.read(1000.0) == 2200

    def test_read_monotone(self):
        tsc = TimestampCounter(2.2)
        assert tsc.read(2000.0) > tsc.read(1000.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigError):
            TimestampCounter(0.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ConfigError):
            TimestampCounter(1.0).read(-1.0)


class TestPipelineConfig:
    def test_blocked_fraction_is_three_quarters(self):
        assert PipelineConfig().blocked_fraction == pytest.approx(0.75)

    def test_rejects_open_cycles_beyond_window(self):
        with pytest.raises(ConfigError):
            PipelineConfig(throttle_window=4, throttle_open_cycles=5)

    def test_rejects_bad_smt(self):
        with pytest.raises(ConfigError):
            PipelineConfig(smt_threads=3)


class TestThrottleSignature:
    def test_throttled_undelivered_near_three_quarters(self):
        # Figure 11(a): ~75 % of slots undelivered while throttled.
        pipe = CorePipeline()
        pipe.set_thread(0, IClass.HEAVY_256)
        pipe.set_throttle(True)
        before = pipe.thread(0).counters.snapshot()
        pipe.run(10_000)
        frac = normalized_undelivered(pipe.thread(0).counters.delta(before))
        assert 0.72 <= frac <= 0.78

    def test_unthrottled_undelivered_near_zero(self):
        pipe = CorePipeline()
        pipe.set_thread(0, IClass.HEAVY_256)
        pipe.set_throttle(False)
        before = pipe.thread(0).counters.snapshot()
        pipe.run(10_000)
        frac = normalized_undelivered(pipe.thread(0).counters.delta(before))
        assert frac < 0.05

    def test_throttled_ipc_is_quarter_of_baseline(self):
        base = CorePipeline().measure_ipc(0, IClass.HEAVY_256, 20_000,
                                          throttled=False)
        throttled = CorePipeline().measure_ipc(0, IClass.HEAVY_256, 20_000,
                                               throttled=True)
        assert throttled == pytest.approx(base / 4.0, rel=0.05)

    def test_idle_core_counts_nothing(self):
        pipe = CorePipeline()
        pipe.run(100)
        assert pipe.core_counters.read(PMC.CPU_CLK_UNHALTED) == 0

    def test_throttle_cycles_counted(self):
        pipe = CorePipeline()
        pipe.set_thread(0, IClass.HEAVY_256)
        pipe.set_throttle(True)
        pipe.run(1000)
        assert pipe.core_counters.read(PMC.THROTTLE_CYCLES) == 1000


class TestSMT:
    def test_whole_core_gate_throttles_both_threads(self):
        # Key Conclusion 5: the IDQ gate is shared by both SMT threads.
        pipe = CorePipeline()
        pipe.set_thread(0, IClass.HEAVY_256)
        pipe.set_thread(1, IClass.SCALAR_64)
        pipe.set_throttle(True)
        before0 = pipe.thread(0).counters.snapshot()
        before1 = pipe.thread(1).counters.snapshot()
        pipe.run(20_000)
        d0 = pipe.thread(0).counters.delta(before0)[PMC.UOPS_DELIVERED]
        d1 = pipe.thread(1).counters.delta(before1)[PMC.UOPS_DELIVERED]
        total_unthrottled = 20_000 * 4
        assert (d0 + d1) / total_unthrottled < 0.3

    def test_smt_threads_share_delivery_when_unthrottled(self):
        pipe = CorePipeline()
        pipe.set_thread(0, IClass.HEAVY_256)
        pipe.set_thread(1, IClass.HEAVY_256)
        pipe.run(20_000)
        d0 = pipe.thread(0).counters.read(PMC.UOPS_DELIVERED)
        d1 = pipe.thread(1).counters.read(PMC.UOPS_DELIVERED)
        assert d0 == pytest.approx(d1, rel=0.05)

    def test_improved_throttling_spares_the_sibling(self):
        # Section 7: gate only the PHI thread's uops.
        pipe = CorePipeline()
        pipe.set_thread(0, IClass.HEAVY_256)
        pipe.set_thread(1, IClass.SCALAR_64)
        pipe.set_throttle(True, only_threads={0})
        pipe.run(20_000)
        d0 = pipe.thread(0).counters.read(PMC.UOPS_DELIVERED)
        d1 = pipe.thread(1).counters.read(PMC.UOPS_DELIVERED)
        assert d1 > 2 * d0

    def test_unknown_thread_rejected(self):
        pipe = CorePipeline(PipelineConfig(smt_threads=1))
        with pytest.raises(ConfigError):
            pipe.set_thread(1, IClass.SCALAR_64)

    def test_negative_cycles_rejected(self):
        pipe = CorePipeline()
        with pytest.raises(ConfigError):
            pipe.run(-1)

    @pytest.mark.parametrize("cycles", [302.0, True, False, "302", None])
    def test_non_int_cycles_rejected(self, cycles):
        pipe = CorePipeline()
        pipe.set_thread(0, IClass.HEAVY_256)
        with pytest.raises(ConfigError, match=repr(cycles)):
            pipe.run(cycles)
        assert pipe.core_counters.read(PMC.CPU_CLK_UNHALTED) == 0


class TestClosedForm:
    @settings(max_examples=200, deadline=None)
    @given(_configs_and_ops())
    def test_matches_per_cycle_stepping(self, case):
        config, ops = case
        fast, oracle = CorePipeline(config), SteppedPipeline(config)
        for name, *args in ops:
            getattr(fast, name)(*args)
            getattr(oracle, name)(*args)
            assert _pipeline_state(fast) == _pipeline_state(oracle)

    @pytest.mark.parametrize("only_threads", [None, {0}, {1}])
    def test_matches_stepping_from_every_small_window_state(self, only_threads):
        # Per-thread gating makes some (phase, rr_next) states transient:
        # the ownership walk re-enters its cycle after a lead-in.  Start
        # from every phase/rr_next reachable with two threads.
        for window in range(1, 5):
            for open_cycles in range(1, window + 1):
                config = PipelineConfig(throttle_window=window,
                                        throttle_open_cycles=open_cycles,
                                        block_instructions=9)
                for lead_in in range(2 * window):
                    for cycles in range(3 * window):
                        fast, oracle = CorePipeline(config), SteppedPipeline(config)
                        for pipe in (fast, oracle):
                            pipe.set_thread(0, IClass.HEAVY_256)
                            pipe.set_thread(1, IClass.SCALAR_64)
                            pipe.run(lead_in)
                            pipe.set_throttle(True, only_threads)
                            pipe.run(cycles)
                        assert _pipeline_state(fast) == _pipeline_state(oracle)

    def test_long_run_matches_many_short_runs(self):
        whole, pieces = CorePipeline(), CorePipeline()
        for pipe in (whole, pieces):
            pipe.set_thread(0, IClass.HEAVY_256)
            pipe.set_thread(1, IClass.SCALAR_64)
            pipe.set_throttle(True, only_threads={0})
        whole.run(302 * 200)
        for _ in range(200):
            pieces.run(302)
        assert _pipeline_state(whole) == _pipeline_state(pieces)

    def test_fig11_signature_unchanged(self):
        result = fig11_idq_signature(200)
        assert content_digest({"throttled": result.throttled,
                               "unthrottled": result.unthrottled}) == FIG11_DIGEST
