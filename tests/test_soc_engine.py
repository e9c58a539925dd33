"""Discrete-event engine."""

import math

import pytest

from repro.errors import SimulationError
from repro.soc import Engine


class TestScheduling:
    def test_events_run_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(20.0, lambda: order.append("b"))
        engine.schedule(10.0, lambda: order.append("a"))
        engine.schedule(30.0, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self):
        engine = Engine()
        order = []
        for tag in "abc":
            engine.schedule(10.0, order.append, tag)
        engine.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule(42.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [42.0]

    def test_schedule_with_args(self):
        engine = Engine()
        seen = []
        engine.schedule(1.0, lambda a, b: seen.append(a + b), 2, 3)
        engine.run()
        assert seen == [5]

    def test_schedule_in_past_rejected(self):
        engine = Engine()
        engine.schedule(10.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        engine = Engine()
        seen = []
        engine.schedule_at(15.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [15.0]

    def test_schedule_at_past_rejected(self):
        engine = Engine()
        engine.schedule(10.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(5.0, lambda: None)

    def test_schedule_at_nan_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError, match="nan"):
            engine.schedule_at(float("nan"), lambda: None)
        assert engine.peek_time() is None

    def test_schedule_nan_delay_rejected(self):
        engine = Engine()
        engine.schedule(10.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError, match="nan"):
            engine.schedule(float("nan"), lambda: None)
        assert engine.peek_time() is None
        assert engine.now == 10.0

    def test_nested_scheduling(self):
        engine = Engine()
        order = []

        def outer():
            order.append("outer")
            engine.schedule(5.0, lambda: order.append("inner"))

        engine.schedule(10.0, outer)
        engine.run()
        assert order == ["outer", "inner"]
        assert engine.now == 15.0


class TestCancel:
    def test_cancelled_event_does_not_run(self):
        engine = Engine()
        seen = []
        handle = engine.schedule(10.0, lambda: seen.append(1))
        handle.cancel()
        engine.run()
        assert seen == []

    def test_cancel_is_idempotent(self):
        engine = Engine()
        handle = engine.schedule(10.0, lambda: None)
        handle.cancel()
        handle.cancel()
        engine.run()

    def test_peek_skips_cancelled(self):
        engine = Engine()
        first = engine.schedule(10.0, lambda: None)
        engine.schedule(20.0, lambda: None)
        first.cancel()
        assert engine.peek_time() == 20.0

    def test_survivors_fire_in_order_after_mass_cancel(self):
        engine = Engine()
        seen = []
        handles = []
        for i in range(200):
            handles.append(engine.schedule(float(i + 1), seen.append, i))
        for i, handle in enumerate(handles):
            if i % 4 != 0:
                handle.cancel()
        engine.run()
        assert seen == [i for i in range(200) if i % 4 == 0]
        assert engine.events_run == 50

    def test_cancel_after_fire_is_harmless(self):
        engine = Engine()
        seen = []
        handle = engine.schedule(1.0, seen.append, "x")
        engine.run()
        handle.cancel()
        handle.cancel()
        assert seen == ["x"]
        engine.schedule(1.0, seen.append, "y")
        engine.run()
        assert seen == ["x", "y"]


class TestRunUntil:
    def test_run_until_stops_at_horizon(self):
        engine = Engine()
        seen = []
        engine.schedule(10.0, lambda: seen.append("early"))
        engine.schedule(100.0, lambda: seen.append("late"))
        engine.run_until(50.0)
        assert seen == ["early"]
        assert engine.now == 50.0

    def test_run_until_includes_boundary(self):
        engine = Engine()
        seen = []
        engine.schedule(50.0, lambda: seen.append("x"))
        engine.run_until(50.0)
        assert seen == ["x"]

    def test_run_until_backwards_rejected(self):
        engine = Engine()
        engine.run_until(100.0)
        with pytest.raises(SimulationError):
            engine.run_until(50.0)

    @pytest.mark.parametrize("target", [math.nan, math.inf])
    def test_run_until_non_finite_rejected(self, target):
        engine = Engine()
        fired = []
        engine.schedule(10.0, fired.append, 1)
        with pytest.raises(SimulationError, match="finite"):
            engine.run_until(target)
        assert fired == [] and engine.now == 0.0

    def test_clock_ends_at_horizon_even_if_queue_empty(self):
        engine = Engine()
        engine.run_until(123.0)
        assert engine.now == 123.0


class TestRunaway:
    def test_run_bounded_by_max_events(self):
        engine = Engine()

        def reschedule():
            engine.schedule(1.0, reschedule)

        engine.schedule(1.0, reschedule)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)

    def test_events_run_counter(self):
        engine = Engine()
        for _ in range(5):
            engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.events_run == 5

    def test_queue_draining_on_the_last_allowed_event_returns(self):
        engine = Engine()
        for i in range(5):
            engine.schedule(float(i + 1), lambda: None)
        engine.run(max_events=5)
        assert engine.events_run == 5
        assert engine.now == 5.0

    def test_cancelled_leftovers_count_as_drained(self):
        engine = Engine()
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None).cancel()
        engine.run(max_events=1)
        assert engine.events_run == 1


class TestEngineCancelRegressions:
    """Regressions for the fused run_until loop and lazy cancellation."""

    def test_cancel_heavy_run_until_runs_every_live_event(self):
        # Most entries are cancelled from inside a dispatched callback,
        # so the loop meets them as dead heads mid-run.
        engine = Engine()
        ran = []
        handles = [engine.schedule(100.0 + i, ran.append, i)
                   for i in range(200)]

        def cancel_most():
            for handle in handles[10:190]:
                handle.cancel()

        engine.schedule(50.0, cancel_most)
        engine.run_until(1_000.0)
        assert ran == list(range(10)) + list(range(190, 200))
        assert engine.now == 1_000.0

    def test_cancels_mid_run_do_not_drop_later_schedules(self):
        # The callback cancels a batch of entries, then schedules a new
        # event; run_until's cached heap alias must still see it.
        engine = Engine()
        ran = []
        garbage = [engine.schedule(500.0 + i, ran.append, "garbage")
                   for i in range(120)]

        def churn():
            for handle in garbage:
                handle.cancel()
            engine.schedule(10.0, ran.append, "late")

        engine.schedule(1.0, churn)
        engine.run_until(2_000.0)
        assert ran == ["late"]

    def test_run_until_drains_cancelled_entries(self):
        engine = Engine()
        for _ in range(3):
            handles = [engine.schedule(1_000.0, lambda: None)
                       for _ in range(100)]
            for handle in handles:
                handle.cancel()
                handle.cancel()  # idempotent: second cancel is a no-op
        engine.run_until(2_000.0)
        assert engine.events_run == 0
        assert engine._heap == []
