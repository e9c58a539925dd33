"""Change-driven recording and rates: everything matches live state.

The system writes each observable trace only at the site where its
input changes, and batches the PMU notifications raised inside one
entry point into a single recompute.  These tests re-derive every
recorded value, every in-flight loop's rate and its completion time
from the live simulation state after *every* engine event, with the
expressions of a full snapshot, and require the system to hold exactly
that.
"""

import math
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro import IClass, Loop, System, SystemOptions
from repro.core import IccThreadCovert
from repro.faults import FaultInjector, SlotScheduleJitter
from repro.isa.instructions import CDYN_NF, IPC, LABEL
from repro.pmu.thermal import ThermalModel, ThermalSpec
from repro.soc import Engine
from repro.soc.config import cannon_lake_i3_8121u
from repro.soc.system import IDLE_CDYN_NF, THROTTLE_FACTOR
from repro.units import us_to_ns


def snapshot(system, sampled_at_ns):
    """Every traced value, re-derived from live state.

    C-state idle Cdyn depends on time rather than on an event, so it is
    sampled at recomputes: ``sampled_at_ns`` is the latest one.
    """
    pmu = system.pmu
    total_cdyn = 0.0
    labels = []
    for core in range(system.config.n_cores):
        threads = [t for t in system.threads if t.core_id == core]
        running = [t.activity.loop.iclass for t in threads
                   if t.activity is not None and t.suspensions == 0]
        if running:
            total_cdyn += max(CDYN_NF[c] for c in running)
        elif system.cstates is not None:
            total_cdyn += system.cstates.idle_cdyn_nf(core, sampled_at_ns)
        else:
            total_cdyn += IDLE_CDYN_NF
        classes = [t.activity.loop.iclass for t in threads
                   if t.activity is not None]
        labels.append(LABEL[max(classes)] if classes else "idle")
    return {
        "cdyn": total_cdyn,
        "freq": pmu.freq_ghz,
        "throttle": [1 if pmu.is_core_throttled(core) else 0
                     for core in range(system.config.n_cores)],
        "label": labels,
        "temp": system.thermal.temperature_c,
    }


def recorded(system, now):
    """Every trace's value in force at ``now``."""
    return {
        "cdyn": system.cdyn_trace.value_at(now),
        "freq": system.freq_trace.value_at(now),
        "throttle": [t.value_at(now) for t in system.throttle_traces],
        "label": [t.value_at(now) for t in system.activity_traces],
        "temp": system.temp_trace.value_at(now),
    }


def check_activities(system):
    """Every in-flight loop's rate and completion, derived from scratch.

    rate = IPC x f / runnable siblings, / THROTTLE_FACTOR when throttled
    (improved throttling gates PHIs only; the ablation gates nothing);
    a suspended thread runs at rate 0 with no completion pending.  The
    completion event must be pending at ``last_update + remaining /
    rate``, or at once when nothing remains.
    """
    pmu = system.pmu
    options = system.options
    now = system.engine.now
    for thread in system.threads:
        activity = thread.activity
        if activity is None:
            continue
        iclass = activity.loop.iclass
        siblings = [t for t in system.threads
                    if t.core_id == thread.core_id]
        runnable = sum(1 for t in siblings
                       if t.activity is not None and t.suspensions == 0)
        throttled = (not options.disable_throttling
                     and pmu.is_core_throttled(thread.core_id)
                     and (not options.improved_throttling or iclass.is_phi))
        rate = 0.0
        if thread.suspensions == 0:
            rate = IPC[iclass] * pmu.freq_ghz / max(1, runnable)
            if throttled:
                rate /= THROTTLE_FACTOR
        where = f"thread {thread.thread_id} at t={now}"
        assert activity.rate == rate, f"stale rate on {where}"
        assert activity.rate_throttled == throttled, (
            f"stale throttle on {where}")
        handle = activity.completion
        if activity.remaining <= 1e-9:
            assert handle is not None and handle.in_heap, where
            assert handle.time_ns <= now, where
        elif rate == 0.0:
            assert handle is None, f"suspended {where} has a completion"
        else:
            eta = activity.last_update + activity.remaining / rate
            assert handle is not None and handle.in_heap, where
            assert not handle.cancelled, where
            assert math.isclose(handle.time_ns, eta, rel_tol=1e-12,
                                abs_tol=1e-9), (
                f"completion of {where} at {handle.time_ns}, not {eta}")


class _Oracle:
    """Checks a system's traces and rates against live state.

    Both are checked after every event of the system's engine.
    """

    def __init__(self, system):
        self.system = system
        self.sampled_at_ns = 0.0
        self.checked = 0

    def __enter__(self):
        system = self.system
        dispatch = Engine._dispatch
        recompute = System._recompute_core

        def checked_dispatch(engine, time_ns, handle):
            dispatch(engine, time_ns, handle)
            if engine is system.engine:
                now = engine.now
                assert (recorded(system, now)
                        == snapshot(system, self.sampled_at_ns)), (
                    f"traces drift from live state after "
                    f"{handle.callback!r} at t={now}")
                check_activities(system)
                self.checked += 1

        def noted_recompute(owner, core):
            recompute(owner, core)
            if owner is system:
                self.sampled_at_ns = owner.engine.now

        self._patches = [
            mock.patch.object(Engine, "_dispatch", checked_dispatch),
            mock.patch.object(System, "_recompute_core", noted_recompute),
        ]
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc):
        for patch in reversed(self._patches):
            patch.stop()
        return False


class TestTracesFollowLiveState:
    def test_fresh_system(self):
        system = System(cannon_lake_i3_8121u())
        assert recorded(system, 0.0) == snapshot(system, 0.0)

    def test_pll_relock(self):
        """At max turbo, AVX-512 on core 1 forces a frequency change.

        The relock throttles every core, so a scalar loop already running
        on core 0 must be re-rated by core 1's entry point, and again
        when core 1 goes idle and the package clocks back up.
        """
        config = cannon_lake_i3_8121u()
        system = System(config, governor_freq_ghz=config.max_turbo_ghz)

        def program(thread_id, iclass, iterations, start_ns):
            yield system.until(start_ns)
            yield system.execute(thread_id, Loop(iclass, iterations))

        def preempt():
            yield system.until(4_000.0)
            system.suspend_thread(1)
            yield system.sleep(2_000.0)
            system.resume_thread(1)

        system.spawn(program(0, IClass.SCALAR_64, 400, 1_000.0))
        system.spawn(program(1, IClass.SCALAR_64, 100, 1_200.0))
        system.spawn(program(2, IClass.HEAVY_512, 20, 3_000.0))
        system.spawn(preempt())
        with _Oracle(system) as oracle:
            system.run_until(us_to_ns(1_000.0))
        freqs = [freq for _, freq in system.freq_trace.breakpoints()]
        assert len(freqs) > 2, "no PLL relock happened"
        assert oracle.checked > 0

    def test_covert_transfer(self):
        system = System(cannon_lake_i3_8121u())
        with _Oracle(system) as oracle:
            report = IccThreadCovert(system).transfer(b"\x5a")
        assert report.received == b"\x5a"
        assert oracle.checked > 100

    def test_faulted_transfer(self):
        system = System(cannon_lake_i3_8121u())
        FaultInjector([SlotScheduleJitter(seed=7)]).attach(system)
        with _Oracle(system) as oracle:
            report = IccThreadCovert(system).transfer(b"\xc3\x0f")
        assert report.sent == b"\xc3\x0f"
        assert oracle.checked > 100


# Random schedules: thread, class, iterations, start offset; plus
# suspensions of a thread (start, duration) and an optional C-state
# configuration whose idle Cdyn deepens with time, under the default,
# improved-throttling or throttling-ablated options.
_SETTINGS = dict(max_examples=15, deadline=None)
schedules = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.sampled_from(list(IClass)),
        st.integers(1, 20),
        st.floats(0.0, 30_000.0),
    ),
    min_size=1, max_size=5,
)
suspensions = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.floats(0.0, 30_000.0),
        st.floats(0.0, 5_000.0),
    ),
    max_size=4,
)
options = st.sampled_from([
    SystemOptions(),
    SystemOptions(improved_throttling=True),
    SystemOptions(disable_throttling=True),
])


class TestRecordingProperties:
    @settings(**_SETTINGS)
    @given(schedules, suspensions, st.booleans(), options)
    def test_random_schedules_match_live_state(self, schedule, suspend,
                                               cstates, opts):
        deduped = list({item[0]: item for item in schedule}.values())
        config = cannon_lake_i3_8121u().with_overrides(
            cstates_enabled=cstates)
        system = System(config, options=opts)
        results = []

        def program(thread_id, iclass, iterations, start_ns):
            yield system.until(start_ns)
            result = yield system.execute(thread_id, Loop(iclass, iterations))
            results.append(result)

        def preempt(thread_id, start_ns, duration_ns):
            yield system.until(start_ns)
            system.suspend_thread(thread_id)
            yield system.sleep(duration_ns)
            system.resume_thread(thread_id)

        for item in deduped:
            system.spawn(program(*item))
        for item in suspend:
            system.spawn(preempt(*item))
        with _Oracle(system) as oracle:
            system.run_until(us_to_ns(2_000.0))
        assert len(results) == len(deduped)
        assert oracle.checked > 0
        assert system.engine.check_cancel_invariant()


class TestThermalZeroStep:
    def test_same_power_zero_dt_advance_is_exact_no_op(self):
        model = ThermalModel(ThermalSpec())
        model.advance(1_000.0, 12.5)
        model.advance(2_500_000.0, 12.5)
        before = model.temperature_c
        for _ in range(10):
            assert model.advance(2_500_000.0, 12.5) == before
        assert model.temperature_c.hex() == before.hex()
