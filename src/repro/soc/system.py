"""The simulated SoC: cores, threads, PMU, PDN and program execution.

A :class:`System` wires a :class:`~repro.soc.config.ProcessorConfig` into a
running machine on top of the event engine:

* every core has ``smt_per_core`` hardware threads;
* programs are Python generators that ``yield`` requests made by the
  system's :meth:`System.sleep`, :meth:`System.until` and
  :meth:`System.execute` builders;
* executing a loop of a power-hungry class raises a voltage request with
  the central PMU; while the request is outstanding the core's delivery
  is throttled to a quarter rate (the IDQ 1-of-4 gate of Section 5.6),
  which is exactly the observable the covert channels measure;
* noise processes may suspend threads (interrupts, context switches).

Execution timing uses the *recompute* pattern: each in-flight loop tracks
its remaining instructions and current rate; every state change (throttle
engage/release, frequency change, sibling start/stop, suspension) updates
progress, re-rates the loop and moves its completion event.  Each core is
recomputed once per simulated instant of an entry point: PMU
notifications raised inside :meth:`System._start_execute` or
:meth:`System._finish_execute` only mark the PMU state changed, and one
flush at the end recomputes the other cores and records the PMU state
before the entry's own core is recomputed.  Notifications from PMU
events and outside callers apply at once.  A completion event whose
recomputed time is bit-identical stays queued.  The package Cdyn is
kept per core, so a change re-derives only that core's share.  A
core's hysteresis check is armed once its requirement's expiry is
final, and the junction temperature is replayed only when read.  The
cycle-level model in :mod:`repro.microarch.pipeline` independently
validates the rate factors used here (quarter-rate throttling, SMT
sharing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, List, Optional, Tuple

from repro.errors import ConfigError, SimulationError
from repro.isa.instructions import CDYN_NF, IPC, LABEL, IClass
from repro.isa.workload import Loop, PhaseTrace, uniform_loop
from repro.measure.trace import StepTrace
from repro.microarch.tsc import TimestampCounter
from repro.pdn.droop import DroopModel, DroopSpec
from repro.pdn.powergate import PowerGate, PowerGateSpec
from repro.pdn.regulator import VoltageRegulator, ldo_spec
from repro.pmu.central import CentralPMU, PMUConfig
from repro.pmu.local import LocalPMU
from repro.pmu.thermal import AmbientRamp, ThermalModel, expand_ramps
from repro.soc.config import ProcessorConfig
from repro.soc.engine import Engine, EventHandle
from repro.units import mohm_to_ohm, us_to_ns

if TYPE_CHECKING:
    from repro.measure.sampler import (
        PiecewiseConstantSignal,
        PiecewiseLinearSignal,
    )

#: Throttle divides the delivery rate by this factor (1 open cycle in 4).
THROTTLE_FACTOR = 4.0

#: Effective switched capacitance (nF) of an idle, clock-gated core.
IDLE_CDYN_NF = 0.5


@dataclass(frozen=True)
class SystemOptions:
    """Behavioural switches, including the paper's mitigations.

    Parameters
    ----------
    per_core_vr:
        Give each core its own rail (Section 7 'Fast Per-core Voltage
        Regulators'); kills the cross-core serialisation.
    ldo_rails:
        Use fast LDO regulator specs instead of the part's native VR.
    improved_throttling:
        Gate only PHI uops of the offending thread instead of the whole
        core (Section 7 'Improved Core Throttling').
    secure_mode:
        Pin guardbands at the worst case; no transitions, no throttling
        (Section 7 'A New Secure Mode of Operation').
    turbo_license_limit:
        Mitigation-matrix defender: clamp the package frequency to the
        worst-case turbo-license ceiling so guardband traffic never
        changes frequency (no PLL-relock throttling), at a permanent
        frequency cost (see :class:`repro.pmu.central.PMUConfig`).
    disable_throttling:
        ABLATION ONLY: let PHIs run at full rate without waiting for
        their guardband.  The droop model then reports the voltage
        emergencies the real mechanism exists to prevent
        (:attr:`System.voltage_emergencies`).
    """

    per_core_vr: bool = False
    ldo_rails: bool = False
    improved_throttling: bool = False
    secure_mode: bool = False
    turbo_license_limit: bool = False
    disable_throttling: bool = False


@dataclass(frozen=True)
class ExecResult:
    """What a program observes after one :meth:`System.execute`."""

    start_ns: float
    end_ns: float
    start_tsc: int
    end_tsc: int
    instructions: int
    iterations: int
    throttled_ns: float
    gate_wake_ns: float

    @property
    def elapsed_ns(self) -> float:
        """Wall time of the loop."""
        return self.end_ns - self.start_ns

    @property
    def elapsed_tsc(self) -> int:
        """TSC ticks of the loop — what ``rdtsc``-based receivers read."""
        return self.end_tsc - self.start_tsc


# -- program requests ----------------------------------------------------------


@dataclass(frozen=True)
class _SleepReq:
    """A program's request to sleep ``delay_ns``."""
    delay_ns: float


@dataclass(frozen=True)
class _UntilReq:
    """A program's request to sleep until ``time_ns``."""
    time_ns: float


@dataclass(frozen=True)
class _ExecReq:
    """A program's request to run ``loop`` on ``thread_id``."""
    thread_id: int
    loop: Loop


class _Process:
    """A running program generator."""

    def __init__(self, gen: Generator, name: str) -> None:
        self.gen = gen
        self.name = name
        self.done = False
        self.result: Any = None


class _Activity:
    """One in-flight Execute on a hardware thread."""

    __slots__ = (
        "loop", "remaining", "rate", "rate_throttled", "last_update",
        "start_ns", "start_tsc", "gate_wake_ns", "throttled_ns",
        "completion", "process", "emergency_checked",
    )

    def __init__(self, loop: Loop, start_ns: float, start_tsc: int,
                 gate_wake_ns: float, process: _Process) -> None:
        self.loop = loop
        self.remaining = float(loop.total_instructions)
        self.rate = 0.0
        self.rate_throttled = False
        self.last_update = start_ns + gate_wake_ns
        self.start_ns = start_ns
        self.start_tsc = start_tsc
        self.gate_wake_ns = gate_wake_ns
        self.throttled_ns = 0.0
        self.completion: Optional[EventHandle] = None
        self.process = process
        self.emergency_checked = False


class _HWThread:
    """One hardware thread (SMT context) of a core."""

    __slots__ = ("thread_id", "core_id", "smt_slot", "activity", "suspensions")

    def __init__(self, thread_id: int, core_id: int, smt_slot: int) -> None:
        self.thread_id = thread_id
        self.core_id = core_id
        self.smt_slot = smt_slot
        self.activity: Optional[_Activity] = None
        self.suspensions = 0


class System:
    """A simulated processor executing programs."""

    def __init__(self, config: ProcessorConfig,
                 options: Optional[SystemOptions] = None,
                 governor_freq_ghz: Optional[float] = None) -> None:
        if options is None:
            options = SystemOptions()
        self.config = config
        self.options = options
        self.engine = Engine()
        self.tsc = TimestampCounter(config.base_freq_ghz)
        #: Fault injector attached to this system, if any.  Set by
        #: :meth:`repro.faults.FaultInjector.attach`; layers below the
        #: fault subsystem (channels, schedules) consult it duck-typed.
        self.faults: Optional[object] = None

        requested = (config.base_freq_ghz if governor_freq_ghz is None
                     else governor_freq_ghz)
        if not config.min_freq_ghz <= requested <= config.max_turbo_ghz:
            raise ConfigError(
                f"requested frequency {requested} GHz outside "
                f"[{config.min_freq_ghz}, {config.max_turbo_ghz}]"
            )
        requested = float(requested)  # fixes freq_trace as a float trace

        self.droop = DroopModel(DroopSpec(), mohm_to_ohm(config.r_ll_mohm))
        #: (time_ns, core, load_voltage, vcc_min) of each di/dt violation;
        #: empty unless throttling is ablated (the mechanism's whole point).
        self.voltage_emergencies: List[tuple] = []
        table = config.operating_points()

        vr_spec = config.vr_spec()
        if options.ldo_rails:
            vr_spec = ldo_spec(config.vcc_max, config.icc_max,
                               vid_step_mv=config.vid_step_mv)
        v0 = vr_spec.quantize_vid(table.vcc(requested))
        if options.per_core_vr or config.per_core_rails:
            rails = [
                VoltageRegulator(vr_spec, v0, name=f"vr_core{i}")
                for i in range(config.n_cores)
            ]
            rail_of_core = list(range(config.n_cores))
        else:
            rails = [VoltageRegulator(vr_spec, v0, name="vr_shared")]
            rail_of_core = [0] * config.n_cores

        self.pmu = CentralPMU(
            engine=self.engine,
            rails=rails,
            rail_of_core=rail_of_core,
            table=table,
            requested_freq_ghz=requested,
            config=PMUConfig(
                pll_relock_ns=config.pll_relock_ns,
                secure_mode=options.secure_mode,
                turbo_license_limit=options.turbo_license_limit,
            ),
        )
        self.pmu.on_state_change = self._on_pmu_state_change

        gate_spec = PowerGateSpec(present=config.avx_pg_present,
                                  wake_ns=config.pg_wake_ns)
        self.local_pmus = [
            LocalPMU(
                core_id=i,
                reset_time_ns=us_to_ns(config.reset_time_us),
                avx256_gate=PowerGate(gate_spec, name=f"c{i}_avx256_pg"),
                avx512_gate=PowerGate(gate_spec, name=f"c{i}_avx512_pg"),
            )
            for i in range(config.n_cores)
        ]
        #: Ambient drifts of the thermal model (see
        #: :meth:`declare_ambient_ramp`), expanded only when read.
        self._ambient_ramps: List[AmbientRamp] = []

        self.threads = [
            _HWThread(thread_id=core * config.smt_per_core + slot,
                      core_id=core, smt_slot=slot)
            for core in range(config.n_cores)
            for slot in range(config.smt_per_core)
        ]
        #: Threads grouped by core, in thread-id order — the recompute
        #: paths walk one core's threads far too often for a filtered
        #: scan over the full list.
        self._core_threads: List[List[_HWThread]] = [
            [t for t in self.threads if t.core_id == core]
            for core in range(config.n_cores)
        ]
        self._hysteresis_checks: List[Optional[EventHandle]] = [None] * config.n_cores
        self._processes: List[_Process] = []
        # Inside _start_execute/_finish_execute a PMU notification only
        # sets _pmu_changed; the entry point flushes once at its end.
        self._batching = False
        self._pmu_changed = False

        # Observable traces.  Each is written where its input changes;
        # docs/SIMULATOR.md ("Trace recording") lists the sites.
        self.freq_trace: StepTrace = StepTrace("freq_ghz")
        self.cdyn_trace: StepTrace = StepTrace("cdyn_nf")
        self.throttle_traces: List[StepTrace] = [
            StepTrace(f"core{i}_throttled") for i in range(config.n_cores)
        ]
        self.activity_traces: List[StepTrace] = [
            StepTrace(f"core{i}_class") for i in range(config.n_cores)
        ]
        #: Each core's share of the package Cdyn, re-derived per core.
        self._cdyn_nf: List[float] = [IDLE_CDYN_NF] * config.n_cores
        self.cdyn_trace.record(self.engine.now, sum(self._cdyn_nf))
        for core in range(config.n_cores):
            self._record_label(core)
        self._record_pmu_state()

        # Apply license/limit clamping for the initial operating point.
        self.pmu.set_requested_freq(requested)

    # -- time and measurement ---------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in ns."""
        return self.engine.now

    def rdtsc(self) -> int:
        """Read the invariant timestamp counter."""
        return self.tsc.read(self.engine.now)

    def vcc_at(self, t_ns: float, core: int = 0) -> float:
        """Rail voltage feeding ``core`` at time ``t_ns``."""
        return self.pmu.core_voltage(core, t_ns)

    def icc_at(self, t_ns: float) -> float:
        """Package supply current at ``t_ns`` (Cdyn * V * f)."""
        cdyn = self.cdyn_trace.value_at(t_ns, default=0.0)
        freq = self.freq_trace.value_at(t_ns, default=self.pmu.freq_ghz)
        vcc = self.vcc_at(t_ns)
        return float(cdyn) * vcc * float(freq)

    def power_at(self, t_ns: float) -> float:
        """Package power at ``t_ns``."""
        return self.icc_at(t_ns) * self.vcc_at(t_ns)

    # -- vectorizable signal exports (see repro.measure.sampler) ---------------

    def vcc_signal(self, core: int = 0) -> PiecewiseLinearSignal:
        """A vectorizable snapshot of the rail voltage feeding ``core``.

        Equivalent to ``lambda t: self.vcc_at(t, core)`` but exposes the
        rail's piecewise-linear breakpoints, so the simulated DAQ can
        evaluate a whole sample grid in one ``np.interp`` call instead
        of one history lookup per sample.  Snapshot semantics: commands
        issued after the call are not reflected.
        """
        from repro.measure.sampler import PiecewiseLinearSignal

        times, volts = self.pmu.rail_of(core).breakpoints()
        return PiecewiseLinearSignal(times, volts, name=f"vcc_core{core}")

    def freq_signal(self) -> PiecewiseConstantSignal:
        """A vectorizable snapshot of the package frequency trace."""
        return self.freq_trace.signal(default=self.pmu.freq_ghz)

    def icc_signal(self) -> PiecewiseLinearSignal:
        """A vectorizable snapshot of the package supply current.

        ``icc_at`` is the product of a step trace (Cdyn), the rail
        voltage (piecewise-linear) and another step trace (frequency),
        so between any two breakpoints of the merged time grid it is
        linear in ``t``.  Step discontinuities are encoded as duplicate
        breakpoint times (left value first), which ``np.interp``
        resolves right-continuously — matching :meth:`icc_at` exactly.
        """
        import numpy as np

        from repro.measure.sampler import PiecewiseLinearSignal

        vcc_times, vcc_volts = self.pmu.rail_of(0).breakpoints()
        cdyn = self.cdyn_trace.signal(default=0.0)
        freq = self.freq_trace.signal(default=self.pmu.freq_ghz)
        merged = np.union1d(np.union1d(vcc_times, cdyn.times_ns),
                            freq.times_ns)
        vcc_m = np.interp(merged, vcc_times, vcc_volts)
        icc_right = cdyn.sample(merged) * vcc_m * freq.sample(merged)
        icc_left = (cdyn.sample(merged, inclusive=False) * vcc_m
                    * freq.sample(merged, inclusive=False))
        times: List[float] = []
        values: List[float] = []
        for i, t in enumerate(merged):
            if i > 0 and icc_left[i] != icc_right[i]:
                times.append(float(t))
                values.append(float(icc_left[i]))
            times.append(float(t))
            values.append(float(icc_right[i]))
        return PiecewiseLinearSignal(np.asarray(times), np.asarray(values),
                                     name="icc")

    @property
    def temp_trace(self) -> StepTrace:
        """Junction temperature, replayed from the power inputs on read.

        A fresh :class:`~repro.pmu.thermal.ThermalModel` steps through
        every Cdyn or frequency breakpoint under the package power
        Cdyn x V^2 x f, with the rail voltage at that instant, and
        through every ambient step; the temperature at each power
        breakpoint is recorded.
        """
        model = ThermalModel(self.config.thermal)
        trace: StepTrace = StepTrace("tj_c")
        ambient = self.ambient_steps
        k = 0
        times = {t for t, _ in self.cdyn_trace.breakpoints()}
        times.update(t for t, _ in self.freq_trace.breakpoints())
        for t in sorted(times):
            while k < len(ambient) and ambient[k][0] <= t:
                model.set_ambient_offset(*ambient[k])
                k += 1
            vcc = self.vcc_at(t)
            power = (self.cdyn_trace.value_at(t) * vcc * vcc
                     * self.freq_trace.value_at(t))
            trace.record(t, model.advance(t, power))
        return trace

    @property
    def ambient_steps(self) -> List[Tuple[float, float]]:
        """(time_ns, offset_c) of every ambient step taken so far.

        Expanded from the declared ramps up to the current time.
        """
        return expand_ramps(self._ambient_ramps, self.engine.now)

    def declare_ambient_ramp(self, step_ns: float, step_c: float,
                             ceiling_c: float) -> AmbientRamp:
        """Raise the ambient offset by ``step_c`` every ``step_ns`` from now.

        The offset stops at ``ceiling_c``.  Nothing is scheduled: only the
        junction temperature reads the ambient, and it expands the ramp
        when read (see :attr:`ambient_steps`).
        """
        ramp = AmbientRamp(self.engine.now, step_ns, step_c, ceiling_c)
        self._ambient_ramps.append(ramp)
        return ramp

    def thread_on(self, core: int, smt_slot: int = 0) -> int:
        """Thread id of SMT slot ``smt_slot`` on ``core``."""
        if not 0 <= core < self.config.n_cores:
            raise ConfigError(f"no such core: {core}")
        if not 0 <= smt_slot < self.config.smt_per_core:
            raise ConfigError(
                f"{self.config.codename} has {self.config.smt_per_core} "
                f"SMT slots per core, asked for slot {smt_slot}"
            )
        return core * self.config.smt_per_core + smt_slot

    # -- program API -----------------------------------------------------------

    def sleep(self, delay_ns: float) -> _SleepReq:
        """Request: pause the program for ``delay_ns``."""
        if not 0.0 <= delay_ns < math.inf:
            raise ConfigError(f"sleep must be finite and >= 0, got {delay_ns}")
        return _SleepReq(delay_ns)

    def until(self, time_ns: float) -> _UntilReq:
        """Request: pause the program until absolute time ``time_ns``."""
        if not math.isfinite(time_ns):
            raise ConfigError(f"until must be a finite time, got {time_ns}")
        return _UntilReq(time_ns)

    def execute(self, thread_id: int, loop: Loop) -> _ExecReq:
        """Request: run ``loop`` on hardware thread ``thread_id``."""
        self._thread(thread_id)  # validate
        if loop.iclass.width_bits > self.config.max_vector_bits:
            raise ConfigError(
                f"{self.config.codename} has no {loop.iclass.width_bits}-bit "
                f"vector unit"
            )
        return _ExecReq(thread_id, loop)

    def spawn(self, gen: Generator, name: str = "program") -> _Process:
        """Start a program generator as a simulation process."""
        process = _Process(gen, name)
        self._processes.append(process)
        self.engine.schedule(0.0, self._advance, process, None)
        return process

    def run_until(self, time_ns: float) -> None:
        """Advance the simulation to ``time_ns``."""
        self.engine.run_until(time_ns)

    def run_to_completion(self, max_events: int = 10_000_000) -> None:
        """Run until every scheduled event (and program) has finished."""
        self.engine.run(max_events)

    # -- noise hooks ------------------------------------------------------------

    def suspend_thread(self, thread_id: int) -> None:
        """Preempt a thread (interrupt/context-switch arrival)."""
        thread = self._thread(thread_id)
        thread.suspensions += 1
        self._recompute_core(thread.core_id)
        self._record_cdyn(thread.core_id)

    def resume_thread(self, thread_id: int) -> None:
        """Return a preempted thread to execution."""
        thread = self._thread(thread_id)
        if thread.suspensions <= 0:
            raise SimulationError(f"thread {thread_id} resumed while not suspended")
        thread.suspensions -= 1
        self._recompute_core(thread.core_id)
        self._record_cdyn(thread.core_id)

    # -- workload helpers ---------------------------------------------------------

    def trace_program(self, thread_id: int, trace: PhaseTrace) -> Generator:
        """A program that plays a :class:`PhaseTrace` on a thread."""

        def run() -> Generator:
            for phase in trace:
                loop = uniform_loop(
                    phase.iclass,
                    duration_us=phase.duration_ns / 1_000.0,
                    freq_ghz=self.pmu.freq_ghz,
                )
                yield self.execute(thread_id, loop)
            return None

        return run()

    # -- internals ---------------------------------------------------------------

    def _thread(self, thread_id: int) -> _HWThread:
        """The hardware thread ``thread_id``; ConfigError if none."""
        if not 0 <= thread_id < len(self.threads):
            raise ConfigError(f"no such hardware thread: {thread_id}")
        return self.threads[thread_id]

    def _advance(self, process: _Process, send_value: Any) -> None:
        """Resume ``process`` with ``send_value``; serve its next request."""
        if process.done:
            raise SimulationError(f"process {process.name} resumed after finish")
        try:
            request = process.gen.send(send_value)
        except StopIteration as stop:
            process.done = True
            process.result = stop.value
            return
        if isinstance(request, _SleepReq):
            self.engine.schedule(request.delay_ns, self._advance, process, None)
        elif isinstance(request, _UntilReq):
            delay = request.time_ns - self.engine.now
            self.engine.schedule(delay if delay > 0.0 else 0.0,
                                 self._advance, process, None)
        elif isinstance(request, _ExecReq):
            self._start_execute(request.thread_id, request.loop, process)
        else:
            raise SimulationError(
                f"process {process.name} yielded unknown request {request!r}"
            )

    def _start_execute(self, thread_id: int, loop: Loop,
                       process: _Process) -> None:
        """Begin running ``loop`` on a thread for ``process``."""
        thread = self._thread(thread_id)
        if thread.activity is not None:
            raise SimulationError(
                f"thread {thread_id} already has an execute in flight"
            )
        now = self.engine.now
        core = thread.core_id
        local = self.local_pmus[core]
        wake = local.gate_wake_latency(loop.iclass, now)
        local.note_execute(loop.iclass, now)
        thread.activity = _Activity(loop, now, self.rdtsc(), wake, process)
        self._batching = True
        try:
            self.pmu.set_core_active(core, True)
            self.pmu.request_up(core, loop.iclass)
        finally:
            self._batching = False
        self._flush_pmu_state(core)
        self._recompute_core(core)
        self._record_label(core)
        self._record_cdyn(core)

    def _finish_execute(self, thread: _HWThread) -> None:
        """Complete a thread's loop and resume its process."""
        activity = thread.activity
        assert activity is not None
        now = self.engine.now
        result = ExecResult(
            start_ns=activity.start_ns,
            end_ns=now,
            start_tsc=activity.start_tsc,
            end_tsc=self.rdtsc(),
            instructions=activity.loop.total_instructions,
            iterations=activity.loop.iterations,
            throttled_ns=activity.throttled_ns,
            gate_wake_ns=activity.gate_wake_ns,
        )
        core = thread.core_id
        self.local_pmus[core].note_execute(activity.loop.iclass, now)
        thread.activity = None
        core_busy = False
        for sibling in self._core_threads[core]:
            if sibling.activity is not None:
                core_busy = True
                break
        self._batching = True
        try:
            self.pmu.set_core_active(core, core_busy)
        finally:
            self._batching = False
        self._flush_pmu_state(core)
        self._arm_hysteresis_check(core)
        self._recompute_core(core)
        self._record_label(core)
        self._record_cdyn(core)
        self._advance(activity.process, result)

    def _recompute_core(self, core: int) -> None:
        """Split every in-flight loop on ``core`` at now and re-rate it.

        rate = IPC x f / runnable siblings, / THROTTLE_FACTOR while the
        thread is throttled; a suspended thread runs at rate 0.
        """
        members = self._core_threads[core]
        busy = False
        runnable = 0
        for thread in members:
            if thread.activity is not None:
                busy = True
                if thread.suspensions == 0:
                    runnable += 1
        if not busy:
            return
        if runnable == 0:
            runnable = 1
        now = self.engine.now
        options = self.options
        core_throttled = (not options.disable_throttling
                          and self.pmu.is_core_throttled(core))
        phi_only = options.improved_throttling
        freq = self.pmu.freq_ghz
        for thread in members:
            activity = thread.activity
            if activity is None:
                continue
            self._update_progress(thread, now)
            iclass = activity.loop.iclass
            throttled = core_throttled and (not phi_only or iclass.is_phi)
            if thread.suspensions > 0:
                rate = 0.0
            else:
                rate = IPC[iclass] * freq / runnable
                if throttled:
                    rate /= THROTTLE_FACTOR
            activity.rate = rate
            activity.rate_throttled = throttled
            self._check_voltage_emergency(thread)
            self._reschedule_completion(thread)

    def _on_pmu_state_change(self) -> None:
        """Re-rate every core after a PMU change (deferred while batching)."""
        if self._batching:
            self._pmu_changed = True
            return
        for core in range(self.config.n_cores):
            self._recompute_core(core)
        self._record_pmu_state()

    def _flush_pmu_state(self, own_core: int) -> None:
        """End an entry point's batch: apply its PMU notifications once.

        Every other core is recomputed and the PMU state recorded only
        when a notification arrived; the caller recomputes ``own_core``
        itself, so each core is recomputed once per entry point.
        """
        if not self._pmu_changed:
            return
        self._pmu_changed = False
        for core in range(self.config.n_cores):
            if core != own_core:
                self._recompute_core(core)
        self._record_pmu_state()

    def _update_progress(self, thread: _HWThread, now: float) -> None:
        """Advance a thread's running loop to ``now`` at its current rate."""
        activity = thread.activity
        assert activity is not None
        elapsed = now - activity.last_update
        if elapsed <= 0:
            return
        remaining = activity.remaining - activity.rate * elapsed
        activity.remaining = remaining if remaining > 0.0 else 0.0
        if activity.rate_throttled and activity.rate > 0:
            activity.throttled_ns += elapsed
        activity.last_update = now
        self.local_pmus[thread.core_id].touch_gates(activity.loop.iclass, now)
        self.local_pmus[thread.core_id].note_execute(activity.loop.iclass, now)

    def _reschedule_completion(self, thread: _HWThread) -> None:
        """Move the completion event to the loop's current finish time.

        A pending event already at the bit-identical time is kept.
        """
        activity = thread.activity
        assert activity is not None
        pending = activity.completion
        now = self.engine.now
        if activity.remaining <= 1e-9:
            when: Optional[float] = now
        elif activity.rate <= 0.0:
            when = None  # resumes when a recompute raises the rate
        else:
            lag = activity.last_update + activity.remaining / activity.rate - now
            when = now + (lag if lag > 0.0 else 0.0)
        if pending is not None:
            if pending.time_ns == when:
                return
            pending.cancel()
            activity.completion = None
        if when is not None:
            activity.completion = self.engine.schedule_at(
                when, self._complete, thread, activity)

    def _complete(self, thread: _HWThread, activity: _Activity) -> None:
        """Finish ``activity`` when its completion event fires."""
        if thread.activity is not activity:
            return  # stale completion after the activity already finished
        # A fired handle is never kept: its args point back at the
        # activity, and the cycle would leave the loop to the cyclic GC.
        activity.completion = None
        self._update_progress(thread, self.engine.now)
        if activity.remaining > 1e-6:
            self._reschedule_completion(thread)
            return
        self._finish_execute(thread)

    def _check_voltage_emergency(self, thread: _HWThread) -> None:
        """Record a di/dt violation when a PHI outruns its guardband.

        A thread executing above the core's granted level steps the load
        current by the class's Cdyn delta; throttling quarters that step
        while the rail catches up, which is exactly what keeps the load
        above Vcc_min.  With throttling ablated the full step hits an
        unprepared rail and the droop model flags the emergency the real
        mechanism prevents (Key Conclusion 1).
        """
        activity = thread.activity
        if activity is None or activity.emergency_checked:
            return
        if thread.suspensions > 0 or activity.rate <= 0.0:
            return
        core = thread.core_id
        iclass = activity.loop.iclass
        granted = self.pmu.granted[core]
        if iclass <= granted:
            return
        activity.emergency_checked = True
        now = self.engine.now
        freq = self.pmu.freq_ghz
        vcc_rail = self.pmu.core_voltage(core, now)
        cdyn_step = iclass.cdyn_nf - granted.cdyn_nf
        factor = 0.25 if activity.rate_throttled else 1.0
        icc_before = granted.cdyn_nf * vcc_rail * freq
        icc_after = icc_before + cdyn_step * vcc_rail * freq * factor
        vcc_min = self.pmu.table.vcc(freq) - self.config.droop_margin_mv / 1000.0
        load_min = self.droop.load_voltage_min(vcc_rail, icc_before, icc_after)
        if load_min < vcc_min:
            self.voltage_emergencies.append((now, core, load_min, vcc_min))

    # -- hysteresis -------------------------------------------------------------------

    def _core_requirement(self, core: int, now: float) -> IClass:
        """The heaviest class ``core`` needs at ``now``."""
        requirement = self.local_pmus[core].requirement(now)
        for thread in self._core_threads[core]:
            if thread.activity is not None:
                running = thread.activity.loop.iclass
                if running > requirement:
                    requirement = running
        return requirement

    def _arm_hysteresis_check(self, core: int) -> None:
        """Arm ``core``'s check for when its requirement leaves the window.

        Armed only once that expiry is final: while an in-flight loop
        holds the requirement, its finish arms the check instead.  A
        pending check already due at that time stays queued.
        """
        now = self.engine.now
        local = self.local_pmus[core]
        expiry = local.next_expiry_ns(now)
        if expiry is None:
            return
        requirement = local.requirement(now)
        for thread in self._core_threads[core]:
            if (thread.activity is not None
                    and thread.activity.loop.iclass >= requirement):
                return
        when = expiry + 1.0
        pending = self._hysteresis_checks[core]
        if pending is not None:
            if pending.time_ns == when:
                return
            pending.cancel()
        self._hysteresis_checks[core] = self.engine.schedule_at(
            when, self._hysteresis_check, core, requirement,
        )

    def _hysteresis_check(self, core: int, armed: IClass) -> None:
        """Lower ``core``'s grant once the class ``armed`` left the window.

        A check that comes due while ``armed`` is still in the window (a
        loop of that class or higher started after the check was armed)
        lowers nothing: an outside holder's grant (state flush, grant
        interference) is then never cut short at an instant when the
        local requirement did not drop.
        """
        self._hysteresis_checks[core] = None
        now = self.engine.now
        if self.local_pmus[core].requirement(now) >= armed:
            self._arm_hysteresis_check(core)
            return
        # A still-running loop keeps its class fresh even with no events.
        for thread in self._core_threads[core]:
            if thread.activity is not None:
                self.local_pmus[core].note_execute(
                    thread.activity.loop.iclass, now,
                )
        requirement = self._core_requirement(core, now)
        if requirement < self.pmu.granted[core]:
            self.pmu.request_down(core, requirement)
        self._arm_hysteresis_check(core)

    # -- tracing --------------------------------------------------------------------------

    def _core_cdyn(self, core: int) -> float:
        """Cdyn of ``core``'s heaviest runnable loop, or ``IDLE_CDYN_NF``."""
        top: Optional[float] = None
        for thread in self._core_threads[core]:
            if thread.activity is not None and thread.suspensions == 0:
                cdyn = CDYN_NF[thread.activity.loop.iclass]
                if top is None or cdyn > top:
                    top = cdyn
        return IDLE_CDYN_NF if top is None else top

    def _record_label(self, core: int) -> None:
        """Write ``core``'s activity label (its heaviest in-flight class)."""
        top: Optional[IClass] = None
        for thread in self._core_threads[core]:
            if thread.activity is not None:
                iclass = thread.activity.loop.iclass
                if top is None or iclass > top:
                    top = iclass
        self.activity_traces[core].record(
            self.engine.now, LABEL[top] if top is not None else "idle",
        )

    def _record_cdyn(self, core: int) -> None:
        """Write the package Cdyn after re-deriving ``core``'s share."""
        shares = self._cdyn_nf
        shares[core] = self._core_cdyn(core)
        self.cdyn_trace.record(self.engine.now, sum(shares))

    def _record_pmu_state(self) -> None:
        """Write what the PMU decides: per-core throttle and frequency."""
        now = self.engine.now
        pmu = self.pmu
        for core, trace in enumerate(self.throttle_traces):
            trace.record(now, 1 if pmu.is_core_throttled(core) else 0)
        self.freq_trace.record(now, pmu.freq_ghz)
