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
kept per core, so a change re-derives only that core's share.  The
cycle-level model in :mod:`repro.microarch.pipeline` independently
validates the rate factors used here (quarter-rate throttling, SMT
sharing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.isa.instructions import CDYN_NF, IPC, LABEL, IClass
from repro.isa.workload import Loop, PhaseTrace, uniform_loop
from repro.measure.sampler import PiecewiseConstantSignal, PiecewiseLinearSignal
from repro.measure.trace import StepTrace
from repro.microarch.tsc import TimestampCounter
from repro.pdn.droop import DroopModel, DroopSpec
from repro.pdn.guardband import GuardbandModel
from repro.pdn.loadline import LoadLine
from repro.pdn.powergate import PowerGate, PowerGateSpec
from repro.pdn.regulator import VoltageRegulator, ldo_spec
from repro.pmu.central import CentralPMU, PMUConfig
from repro.pmu.cstates import CStateSpec, CStateTracker
from repro.pmu.dvfs import pstate_ladder
from repro.pmu.governors import Governor
from repro.pmu.limits import LimitPolicy
from repro.pmu.local import LocalPMU
from repro.pmu.thermal import ThermalModel
from repro.soc.config import ProcessorConfig
from repro.soc.engine import Engine, EventHandle
from repro.units import mohm_to_ohm, us_to_ns

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
    pmu_queue_depth:
        Bound on the central PMU's per-rail transition queue; 0 keeps
        the paper's unbounded mailbox (see
        :class:`repro.pmu.central.PMUConfig`).
    pmu_grant_policy:
        ``"serialized"`` (the paper's behaviour) or ``"coalesced"``
        (batch all queued up-requests into one transition).
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
    pmu_queue_depth: int = 0
    pmu_grant_policy: str = "serialized"


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
    delay_ns: float


@dataclass(frozen=True)
class _UntilReq:
    time_ns: float


@dataclass(frozen=True)
class _ExecReq:
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
        "completion", "resume", "emergency_checked",
    )

    def __init__(self, loop: Loop, start_ns: float, start_tsc: int,
                 gate_wake_ns: float,
                 resume: Callable[[ExecResult], None]) -> None:
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
        self.resume = resume
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

    @property
    def runnable(self) -> bool:
        """Has work and is not suspended by an interrupt/context switch."""
        return self.activity is not None and self.suspensions == 0


class System:
    """A simulated processor executing programs."""

    def __init__(self, config: ProcessorConfig,
                 options: Optional[SystemOptions] = None,
                 governor_freq_ghz: Optional[float] = None,
                 governor: Optional["Governor"] = None,
                 seed: int = 2021) -> None:
        if options is None:
            options = SystemOptions()
        self.config = config
        self.options = options
        self.engine = Engine()
        self.rng = np.random.default_rng(seed)
        self.tsc = TimestampCounter(config.base_freq_ghz)
        #: Fault injector attached to this system, if any.  Set by
        #: :meth:`repro.faults.FaultInjector.attach`; layers below the
        #: fault subsystem (channels, schedules) consult it duck-typed.
        self.faults: Optional[object] = None

        if governor is not None and governor_freq_ghz is not None:
            raise ConfigError(
                "pass either governor or governor_freq_ghz, not both"
            )
        if governor is not None:
            requested = governor.requested_freq_ghz()
        elif governor_freq_ghz is not None:
            requested = governor_freq_ghz
        else:
            requested = config.base_freq_ghz
        if not config.min_freq_ghz <= requested <= config.max_turbo_ghz:
            raise ConfigError(
                f"requested frequency {requested} GHz outside "
                f"[{config.min_freq_ghz}, {config.max_turbo_ghz}]"
            )

        loadline = LoadLine(mohm_to_ohm(config.r_ll_mohm))
        self.guardband = GuardbandModel(loadline)
        self.droop = DroopModel(DroopSpec(), loadline.r_ll_ohm)
        #: (time_ns, core, load_voltage, vcc_min) of each di/dt violation;
        #: empty unless throttling is ablated (the mechanism's whole point).
        self.voltage_emergencies: List[tuple] = []
        curve = config.vf_curve()
        self.limits = LimitPolicy(curve, self.guardband, config.vcc_max, config.icc_max)
        ladder = pstate_ladder(curve, config.min_freq_ghz, config.max_turbo_ghz,
                               config.pstate_step_ghz)

        vr_spec = config.vr_spec()
        if options.ldo_rails:
            vr_spec = ldo_spec(config.vcc_max, config.icc_max,
                               vid_step_mv=config.vid_step_mv)
        v0 = vr_spec.quantize_vid(curve.vcc_for(requested))
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
            guardband=self.guardband,
            curve=curve,
            limits=self.limits,
            ladder=ladder,
            licenses=config.license_table(),
            requested_freq_ghz=requested,
            config=PMUConfig(
                pll_relock_ns=config.pll_relock_ns,
                secure_mode=options.secure_mode,
                queue_depth=options.pmu_queue_depth,
                grant_policy=options.pmu_grant_policy,
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
        self.thermal = ThermalModel(config.thermal)
        self.cstates: Optional[CStateTracker] = (
            CStateTracker(CStateSpec(), config.n_cores)
            if config.cstates_enabled else None
        )

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
        self.temp_trace: StepTrace = StepTrace("tj_c")
        #: Each core's share of the package Cdyn, re-derived per core.
        self._cdyn_nf: List[float] = [0.0] * config.n_cores
        self._record_cdyn()
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

    def apply_governor(self, governor: Governor) -> None:
        """Apply a software frequency policy at runtime (Section 5.7).

        The governor only picks the *requested* frequency; hardware
        current management (licenses, limits, throttling) still applies
        on top and cannot be disabled from software.
        """
        requested = governor.requested_freq_ghz()
        if not self.config.min_freq_ghz <= requested <= self.config.max_turbo_ghz:
            raise ConfigError(
                f"governor requested {requested} GHz outside "
                f"[{self.config.min_freq_ghz}, {self.config.max_turbo_ghz}]"
            )
        self.pmu.set_requested_freq(requested)

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
        if not 0 <= thread_id < len(self.threads):
            raise ConfigError(f"no such hardware thread: {thread_id}")
        return self.threads[thread_id]

    def _advance(self, process: _Process, send_value: Any) -> None:
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
            delay = max(0.0, request.time_ns - self.engine.now)
            self.engine.schedule(delay, self._advance, process, None)
        elif isinstance(request, _ExecReq):
            self._start_execute(
                request.thread_id, request.loop,
                lambda result: self._advance(process, result),
            )
        else:
            raise SimulationError(
                f"process {process.name} yielded unknown request {request!r}"
            )

    def _start_execute(self, thread_id: int, loop: Loop,
                       resume: Callable[[ExecResult], None]) -> None:
        thread = self._thread(thread_id)
        if thread.activity is not None:
            raise SimulationError(
                f"thread {thread_id} already has an execute in flight"
            )
        now = self.engine.now
        core = thread.core_id
        local = self.local_pmus[core]
        wake = 0.0
        if self.cstates is not None:
            # Waking a clock/power-gated core pays the C-state exit
            # latency before anything else runs.
            wake += self.cstates.wake_latency_ns(core, now)
            self.cstates.note_busy(core)
        wake += local.gate_wake_latency(loop.iclass, now + wake)
        local.note_execute(loop.iclass, now)
        thread.activity = _Activity(loop, now, self.rdtsc(), wake, resume)
        self._batching = True
        try:
            self.pmu.set_core_active(core, True)
            self.pmu.request_up(core, loop.iclass)
        finally:
            self._batching = False
        self._flush_pmu_state(core)
        self._schedule_hysteresis_check(core)
        self._recompute_core(core)
        self._record_label(core)
        self._record_cdyn(core)

    def _finish_execute(self, thread: _HWThread) -> None:
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
        core_busy = any(
            t.activity is not None for t in self._core_threads[core]
        )
        if self.cstates is not None and not core_busy:
            self.cstates.note_idle(core, now)
        self._batching = True
        try:
            self.pmu.set_core_active(core, core_busy)
        finally:
            self._batching = False
        self._flush_pmu_state(core)
        self._recompute_core(core)
        self._record_label(core)
        self._record_cdyn(core)
        activity.resume(result)

    def _recompute_core(self, core: int) -> None:
        """Split every in-flight loop on ``core`` at now and re-rate it.

        rate = IPC x f / runnable siblings, / THROTTLE_FACTOR while the
        thread is throttled; a suspended thread runs at rate 0.
        """
        members = self._core_threads[core]
        busy = [t for t in members if t.activity is not None]
        if not busy:
            return
        now = self.engine.now
        runnable = max(1, sum(1 for t in busy if t.suspensions == 0))
        options = self.options
        core_throttled = (not options.disable_throttling
                          and self.pmu.is_core_throttled(core))
        phi_only = options.improved_throttling
        freq = self.pmu.freq_ghz
        for thread in busy:
            activity = thread.activity
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
        activity = thread.activity
        assert activity is not None
        elapsed = now - activity.last_update
        if elapsed <= 0:
            return
        done = activity.rate * elapsed
        activity.remaining = max(0.0, activity.remaining - done)
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
            eta = activity.last_update + activity.remaining / activity.rate
            when = now + max(0.0, eta - now)
        if pending is not None:
            if pending.in_heap and pending.time_ns == when:
                return
            pending.cancel()
            activity.completion = None
        if when is not None:
            activity.completion = self.engine.schedule_at(
                when, self._complete, thread, activity)

    def _complete(self, thread: _HWThread, activity: _Activity) -> None:
        if thread.activity is not activity:
            return  # stale completion after the activity already finished
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
        vcc_min = self.pmu.curve.vcc_for(freq) - self.config.droop_margin_mv / 1000.0
        load_min = self.droop.load_voltage_min(vcc_rail, icc_before, icc_after)
        if load_min < vcc_min:
            self.voltage_emergencies.append((now, core, load_min, vcc_min))

    # -- hysteresis -------------------------------------------------------------------

    def _core_requirement(self, core: int, now: float) -> IClass:
        requirement = self.local_pmus[core].requirement(now)
        for thread in self._core_threads[core]:
            if thread.activity is not None:
                running = thread.activity.loop.iclass
                if running > requirement:
                    requirement = running
        return requirement

    def _schedule_hysteresis_check(self, core: int) -> None:
        pending = self._hysteresis_checks[core]
        if pending is not None:
            pending.cancel()
        expiry = self.local_pmus[core].next_expiry_ns(self.engine.now)
        if expiry is None:
            self._hysteresis_checks[core] = None
            return
        delay = max(0.0, expiry - self.engine.now) + 1.0
        self._hysteresis_checks[core] = self.engine.schedule(
            delay, self._hysteresis_check, core,
        )

    def _hysteresis_check(self, core: int) -> None:
        self._hysteresis_checks[core] = None
        now = self.engine.now
        # A still-running loop keeps its class fresh even with no events.
        for thread in self._core_threads[core]:
            if thread.activity is not None:
                self.local_pmus[core].note_execute(
                    thread.activity.loop.iclass, now,
                )
        requirement = self._core_requirement(core, now)
        if requirement < self.pmu.granted[core]:
            self.pmu.request_down(core, requirement)
        self._schedule_hysteresis_check(core)

    # -- tracing --------------------------------------------------------------------------

    def _core_cdyn(self, core: int) -> float:
        classes = [
            t.activity.loop.iclass
            for t in self._core_threads[core]
            if t.runnable and t.activity is not None
        ]
        if not classes:
            if self.cstates is not None:
                return self.cstates.idle_cdyn_nf(core, self.engine.now)
            return IDLE_CDYN_NF
        return max(CDYN_NF[c] for c in classes)

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

    def _record_cdyn(self, core: Optional[int] = None) -> None:
        """Write the package Cdyn; a change steps the thermal model.

        Re-derives ``core``'s share only, or every core's when ``core``
        is None or C-states make idle Cdyn depend on time.
        """
        shares = self._cdyn_nf
        if core is None or self.cstates is not None:
            for other in range(self.config.n_cores):
                shares[other] = self._core_cdyn(other)
        else:
            shares[core] = self._core_cdyn(core)
        total_cdyn = sum(shares)
        if self.cdyn_trace.record(self.engine.now, total_cdyn):
            self._advance_thermal(total_cdyn)

    def _record_pmu_state(self) -> None:
        """Write what the PMU decides: per-core throttle and frequency."""
        now = self.engine.now
        pmu = self.pmu
        for core, trace in enumerate(self.throttle_traces):
            trace.record(now, 1 if pmu.is_core_throttled(core) else 0)
        if self.cstates is not None:
            # C-state idle Cdyn deepens with time, not at an event of its
            # own, so it is sampled at every PMU state record as well.
            self._record_cdyn()
        if self.freq_trace.record(now, pmu.freq_ghz):
            self._advance_thermal(sum(self._cdyn_nf))

    def _advance_thermal(self, total_cdyn: float) -> None:
        """Step the junction temperature to now under the new package power.

        Called only where a power input (Cdyn or frequency) changes, with
        the package Cdyn in force; the rail voltage is sampled at that
        instant.
        """
        now = self.engine.now
        vcc = self.vcc_at(now)
        power = total_cdyn * vcc * vcc * self.pmu.freq_ghz
        self.temp_trace.record(now, self.thermal.advance(now, power))
