"""Change-driven recording and rates: everything matches live state.

The system writes each observable trace only at the site where its
input changes, and batches the PMU notifications raised inside one
entry point into a single recompute.  These tests re-derive every
recorded value, every in-flight loop's rate and its completion time
from the live simulation state after *every* engine event, with the
expressions of a full snapshot, and require the system to hold exactly
that.  They also check that each core's hysteresis check is pending
exactly when its requirement can still drop, and that the junction
temperature the system derives on read equals an eager replay stepped
at every change of a power input.
"""

import math
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro import IClass, Loop, System, SystemOptions
from repro.core import IccThreadCovert
from repro.faults import FaultInjector, SlotScheduleJitter, ThermalDriftRamp
from repro.isa.instructions import CDYN_NF, IPC, LABEL
from repro.measure.trace import StepTrace
from repro.pmu.thermal import ThermalModel, ThermalSpec
from repro.soc import Engine
from repro.soc.config import cannon_lake_i3_8121u
from repro.soc.system import IDLE_CDYN_NF, THROTTLE_FACTOR
from repro.units import us_to_ns


def snapshot(system):
    """Every traced value, re-derived from live state."""
    pmu = system.pmu
    total_cdyn = 0.0
    labels = []
    for core in range(system.config.n_cores):
        threads = [t for t in system.threads if t.core_id == core]
        running = [t.activity.loop.iclass for t in threads
                   if t.activity is not None and t.suspensions == 0]
        if running:
            total_cdyn += max(CDYN_NF[c] for c in running)
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
    }


def recorded(system, now):
    """Every trace's value in force at ``now``."""
    return {
        "cdyn": system.cdyn_trace.value_at(now),
        "freq": system.freq_trace.value_at(now),
        "throttle": [t.value_at(now) for t in system.throttle_traces],
        "label": [t.value_at(now) for t in system.activity_traces],
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
            assert handle is not None and not handle.cancelled, where
            assert handle.time_ns <= now, where
        elif rate == 0.0:
            assert handle is None, f"suspended {where} has a completion"
        else:
            eta = activity.last_update + activity.remaining / rate
            assert handle is not None and not handle.cancelled, where
            assert math.isclose(handle.time_ns, eta, rel_tol=1e-12,
                                abs_tol=1e-9), (
                f"completion of {where} at {handle.time_ns}, not {eta}")


def _holds_requirement(system, core, now):
    """Whether an in-flight loop on ``core`` holds its requirement."""
    requirement = system.local_pmus[core].requirement(now)
    return any(t.activity is not None
               and t.activity.loop.iclass >= requirement
               for t in system.threads if t.core_id == core)


def check_hysteresis_fire(system, core):
    """A check fires only once the requirement it stands for has expired.

    A check is due 1 ns after the expiry it stands for; looking 1.5 ns
    back absorbs the rounding of that sum.  The expiry found there must
    be in the past, unless a loop started since holds the requirement.
    """
    now = system.engine.now
    stood_for = system.local_pmus[core].next_expiry_ns(now - 1.5)
    assert (stood_for is not None and stood_for < now
            or _holds_requirement(system, core, now)), (
        f"early hysteresis check on core {core} at t={now}")


def check_hysteresis_pending(system):
    """At most one pending check per core, and one wherever it is due.

    A core whose requirement is above ``SCALAR_64`` with no in-flight
    loop holding it has exactly one pending check.
    """
    now = system.engine.now
    for core in range(system.config.n_cores):
        pending = [
            handle for _, _, handle in system.engine._heap
            if not handle.cancelled
            and handle.callback == system._hysteresis_check
            and handle.args[0] == core
        ]
        assert len(pending) <= 1, f"core {core} has {len(pending)} checks"
        requirement = system.local_pmus[core].requirement(now)
        if (requirement > IClass.SCALAR_64
                and not _holds_requirement(system, core, now)):
            assert len(pending) == 1, (
                f"core {core} needs {requirement.name} at t={now} "
                f"with no hysteresis check pending")


def _hex(pairs):
    return [(t.hex(), float(v).hex()) for t, v in pairs]


class _Oracle:
    """Checks a system's traces, rates and timers against live state.

    Builds the system with ``make_system`` while watching it.  Traces,
    rates and pending hysteresis checks are checked after every event
    of the system's engine, and each check as it fires.  On a clean
    exit the derived ``temp_trace`` must equal, bit for bit, an eager
    thermal model stepped where each power input changed, as the
    simulator once did: at every Cdyn or frequency change under Cdyn x
    V^2 x f, with the rail voltage at that instant, and at every
    ambient step.  Ambient steps come from :meth:`run_stepped_ramp`,
    the ramp process the simulator once ran, and the system's declared
    ``ambient_steps`` must equal the ones it took.
    """

    def __init__(self, make_system):
        self.make_system = make_system
        self.system = None
        self.checked = 0
        self.fired = 0
        self.eager_model = None
        self.eager_trace = StepTrace("tj_c")
        self.stepped_ambient = []

    def _advance_eager(self, system):
        if self.eager_model is None:
            self.eager_model = ThermalModel(system.config.thermal)
        now = system.engine.now
        vcc = system.vcc_at(now)
        power = (system.cdyn_trace.value_at(now) * vcc * vcc
                 * system.pmu.freq_ghz)
        self.eager_trace.record(now, self.eager_model.advance(now, power))

    def __enter__(self):
        dispatch = Engine._dispatch
        hysteresis_check = System._hysteresis_check
        record_cdyn = System._record_cdyn
        record_pmu_state = System._record_pmu_state

        def checked_dispatch(engine, time_ns, handle):
            dispatch(engine, time_ns, handle)
            system = self.system
            if system is not None and engine is system.engine:
                now = engine.now
                assert recorded(system, now) == snapshot(system), (
                    f"traces drift from live state after "
                    f"{handle.callback!r} at t={now}")
                check_activities(system)
                check_hysteresis_pending(system)
                self.checked += 1

        def checked_fire(owner, core, armed):
            if owner is self.system:
                check_hysteresis_fire(owner, core)
                self.fired += 1
            hysteresis_check(owner, core, armed)

        # The eager reference: the system under test is the only one
        # built inside this context, so every call here is its own.
        def eager_cdyn(owner, core):
            trace = owner.cdyn_trace
            before = (len(trace), trace.value_at(owner.engine.now))
            record_cdyn(owner, core)
            if (len(trace), trace.value_at(owner.engine.now)) != before:
                self._advance_eager(owner)

        def eager_pmu_state(owner):
            trace = owner.freq_trace
            before = (len(trace), trace.value_at(owner.engine.now))
            record_pmu_state(owner)
            if (len(trace), trace.value_at(owner.engine.now)) != before:
                self._advance_eager(owner)

        self._patches = [
            mock.patch.object(Engine, "_dispatch", checked_dispatch),
            mock.patch.object(System, "_hysteresis_check", checked_fire),
            mock.patch.object(System, "_record_cdyn", eager_cdyn),
            mock.patch.object(System, "_record_pmu_state", eager_pmu_state),
        ]
        for patch in self._patches:
            patch.start()
        try:
            self.system = self.make_system()
        except BaseException:
            self._stop()
            raise
        return self

    def run_stepped_ramp(self, model):
        """Step ``model``'s ambient ramp with a process, as the simulator
        once did, into the eager thermal model and ``stepped_ambient``."""
        system = self.system
        step_c = model.rate_c_per_s * model.intensity * model.step_us * 1e-6

        def ramp():
            offset = 0.0
            while offset < model.max_drift_c:
                yield system.sleep(us_to_ns(model.step_us))
                offset = min(model.max_drift_c, offset + step_c)
                self.stepped_ambient.append((system.now, offset))
                self.eager_model.set_ambient_offset(system.now, offset)

        system.spawn(ramp(), name="stepped_thermal_drift")

    def _stop(self):
        for patch in reversed(self._patches):
            patch.stop()

    def __exit__(self, exc_type, *exc):
        self._stop()
        if exc_type is None:
            assert (_hex(self.system.ambient_steps)
                    == _hex(self.stepped_ambient)), (
                "declared ambient steps differ from the stepped ramp's")
            assert (_hex(self.system.temp_trace.breakpoints())
                    == _hex(self.eager_trace.breakpoints())), (
                "derived temp_trace differs from the eager thermal replay")
        return False


class TestTracesFollowLiveState:
    def test_fresh_system(self):
        with _Oracle(lambda: System(cannon_lake_i3_8121u())) as oracle:
            system = oracle.system
            assert recorded(system, 0.0) == snapshot(system)
            check_hysteresis_pending(system)

    def test_pll_relock(self):
        """At max turbo, AVX-512 on core 1 forces a frequency change.

        The relock throttles every core, so a scalar loop already running
        on core 0 must be re-rated by core 1's entry point, and again
        when core 1 goes idle and the package clocks back up.
        """
        config = cannon_lake_i3_8121u()
        with _Oracle(lambda: System(
                config, governor_freq_ghz=config.max_turbo_ghz)) as oracle:
            system = oracle.system

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
            system.run_until(us_to_ns(1_000.0))
        freqs = [freq for _, freq in system.freq_trace.breakpoints()]
        assert len(freqs) > 2, "no PLL relock happened"
        assert oracle.checked > 0
        assert oracle.fired > 0

    def test_covert_transfer(self):
        with _Oracle(lambda: System(cannon_lake_i3_8121u())) as oracle:
            report = IccThreadCovert(oracle.system).transfer(b"\x5a")
        assert report.received == b"\x5a"
        assert oracle.checked > 100
        assert oracle.fired > 0

    def test_faulted_transfer(self):
        with _Oracle(lambda: System(cannon_lake_i3_8121u())) as oracle:
            FaultInjector([SlotScheduleJitter(seed=7)]).attach(oracle.system)
            report = IccThreadCovert(oracle.system).transfer(b"\xc3\x0f")
        assert report.sent == b"\xc3\x0f"
        assert oracle.checked > 100

    @staticmethod
    def _drift_transfer(*ramps):
        """Transfer under declared ramps, each also run as a process."""
        with _Oracle(lambda: System(cannon_lake_i3_8121u())) as oracle:
            FaultInjector(ramps).attach(oracle.system)
            for ramp in ramps:
                oracle.run_stepped_ramp(ramp)
            report = IccThreadCovert(oracle.system).transfer(b"\x5a")
        assert report.received == b"\x5a"
        assert (sum(ramp.events for ramp in ramps)
                == len(oracle.stepped_ambient))
        return oracle

    def test_thermal_drift_transfer(self):
        """The derived temperature follows every ambient step."""
        oracle = self._drift_transfer(
            ThermalDriftRamp(rate_c_per_s=50, step_us=100))
        assert len(oracle.system.ambient_steps) > 10
        assert len(oracle.eager_trace) > 10

    def test_thermal_drift_reaches_its_ceiling(self):
        # 0.1 degC steps sum to 0.9999999999999999 after ten; the
        # eleventh is capped at the ceiling and ends the ramp.
        oracle = self._drift_transfer(ThermalDriftRamp(
            rate_c_per_s=1000, max_drift_c=1.0, step_us=100))
        steps = oracle.system.ambient_steps
        assert [offset for _, offset in steps[-2:]] == [
            0.9999999999999999, 1.0]
        assert steps[-1][0] < oracle.system.now - us_to_ns(100.0)

    def test_two_thermal_drifts_interleave_like_processes(self):
        # Every 200 us both ramps step at once.  The slower ramp's step
        # was scheduled first and runs first, so the faster ramp's
        # offset is the one left in force.
        oracle = self._drift_transfer(
            ThermalDriftRamp(rate_c_per_s=50, step_us=100),
            ThermalDriftRamp(rate_c_per_s=20, step_us=200))
        steps = oracle.system.ambient_steps
        assert steps[1:4] == [(200_000.0, 0.004), (200_000.0, 0.01),
                              (300_000.0, 0.015)]


# Random schedules: thread, class, iterations, start offset; plus
# suspensions of a thread (start, duration), under the default,
# improved-throttling, throttling-ablated or per-core-rail options.
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
    SystemOptions(per_core_vr=True),
])


class TestRecordingProperties:
    @settings(**_SETTINGS)
    @given(schedules, suspensions, options)
    def test_random_schedules_match_live_state(self, schedule, suspend,
                                               opts):
        deduped = list({item[0]: item for item in schedule}.values())
        config = cannon_lake_i3_8121u()
        results = []
        with _Oracle(lambda: System(config, options=opts)) as oracle:
            system = oracle.system

            def program(thread_id, iclass, iterations, start_ns):
                yield system.until(start_ns)
                result = yield system.execute(thread_id,
                                              Loop(iclass, iterations))
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
            system.run_until(us_to_ns(2_000.0))
        assert len(results) == len(deduped)
        assert oracle.checked > 0


class TestThermalZeroStep:
    def test_same_power_zero_dt_advance_is_exact_no_op(self):
        model = ThermalModel(ThermalSpec())
        model.advance(1_000.0, 12.5)
        model.advance(2_500_000.0, 12.5)
        before = model.temperature_c
        for _ in range(10):
            assert model.advance(2_500_000.0, 12.5) == before
        assert model.temperature_c.hex() == before.hex()
