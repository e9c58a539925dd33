"""Central (package) power management unit.

The central PMU owns the voltage rails and the clock PLL.  Its behaviour
encodes the paper's three root causes:

* **Serialised voltage transitions** — the PMU issues one SVID transition
  at a time per rail and, per the paper's characterisation (Section 5.5),
  keeps every core that is waiting for a guardband *throttled until the
  rail has settled at the level required by all cores*.  With the shared
  rail of client parts this is the Multi-Throttling-Cores side effect.
* **Icc_max/Vcc_max limit protection** — before raising a guardband the
  PMU projects voltage and current; if either limit would be exceeded at
  the current frequency it first drops the package to the fastest
  fitting P-state (Section 5.3), throttling during the PLL relock.
* **Hysteresis** — guardbands are only dropped when the per-core local
  PMU reports that the reset-time window expired (Section 4.1.2); the
  drop is a queued down-transition that throttles nobody.

The *secure mode* mitigation (Section 7) is implemented here: the PMU
pins every grant at the worst-case power virus level, so no request ever
queues and no throttling ever occurs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set

from repro.errors import ConfigError, SimulationError
from repro.isa.instructions import IClass
from repro.obs.tracer import current as _obs
from repro.pdn.guardband import GuardbandModel
from repro.pdn.regulator import VoltageRegulator
from repro.pmu.dvfs import PState, VFCurve
from repro.pmu.limits import LimitPolicy
from repro.pmu.turbo import TurboLicenseTable
from repro.soc.engine import Engine


#: Grant policies :class:`PMUConfig` accepts.
GRANT_POLICIES = ("serialized", "coalesced")


@dataclass(frozen=True)
class PMUConfig:
    """Behavioural parameters of the central PMU.

    Parameters
    ----------
    pll_relock_ns:
        Latency of a package frequency change (PLL relock); cores are
        throttled for its duration.
    secure_mode:
        The paper's secure-mode mitigation: guardbands pinned at the
        worst case, no voltage transitions, no throttling.
    queue_depth:
        Bound on queued transition entries per rail; 0 (the default)
        models the unbounded mailbox the paper characterises.  When a
        rail's queue is full, a new request coalesces into the newest
        queued entry of the same direction (the cores batch into one
        transition) instead of appending — a shallow PMU mailbox, one
        of the scenario library's topology knobs.
    grant_policy:
        ``"serialized"`` (the default, matching the paper's
        measurements) starts one queued entry per settle; a
        ``"coalesced"`` PMU drains every queued up-entry into a single
        transition to the collective worst-case level, shortening the
        shared throttle window at the cost of over-granting — the
        hypothetical firmware fix the interference scenarios probe.
    turbo_license_limit:
        Defender recipe of the mitigation matrix: clamp the package
        frequency to the worst-case turbo-license ceiling (every core
        assumed at the power-virus class) at all times.  Guardband
        changes then never move the legal frequency, so the PLL-relock
        throttling component of the covert signal disappears — but the
        rail transitions (and their settle-time throttling) survive,
        making this a deliberately *weak* defence with a permanent
        frequency cost.
    """

    pll_relock_ns: float = 1_500.0
    secure_mode: bool = False
    queue_depth: int = 0
    grant_policy: str = "serialized"
    turbo_license_limit: bool = False

    def __post_init__(self) -> None:
        if self.pll_relock_ns < 0:
            raise ConfigError(f"PLL relock must be >= 0, got {self.pll_relock_ns}")
        if self.queue_depth < 0:
            raise ConfigError(
                f"queue_depth must be >= 0 (0 = unbounded), got {self.queue_depth}")
        if self.grant_policy not in GRANT_POLICIES:
            raise ConfigError(
                f"grant_policy must be one of {GRANT_POLICIES}, "
                f"got {self.grant_policy!r}")


@dataclass
class _Request:
    """One queued voltage transition: per-core target levels.

    With the default serialized policy and an unbounded queue every
    entry carries exactly one core (the paper's behaviour); shallow
    queues and the coalesced grant policy batch several cores' levels
    into a single entry, granted together when the rail settles.
    """

    targets: Dict[int, IClass]
    up: bool

    def merge(self, core: int, target: IClass) -> None:
        """Fold ``core``'s request into this entry (highest level wins)."""
        current = self.targets.get(core)
        if current is None or target > current:
            self.targets[core] = target


class CentralPMU:
    """Package-level voltage/frequency manager.

    Parameters
    ----------
    engine:
        The simulation event queue.
    rails:
        The voltage regulators; client parts have one shared rail, the
        per-core-VR mitigation passes one rail per core.
    rail_of_core:
        Maps core index to rail index.
    guardband / curve / limits / ladder / licenses:
        Electrical models (see the respective modules).
    requested_freq_ghz:
        The governor's requested package frequency.
    config:
        Behavioural knobs.
    """

    def __init__(self, engine: Engine, rails: Sequence[VoltageRegulator],
                 rail_of_core: Sequence[int], guardband: GuardbandModel,
                 curve: VFCurve, limits: LimitPolicy,
                 ladder: Sequence[PState], licenses: TurboLicenseTable,
                 requested_freq_ghz: float,
                 config: PMUConfig = PMUConfig()) -> None:
        if not rails:
            raise ConfigError("at least one rail is required")
        if any(not 0 <= r < len(rails) for r in rail_of_core):
            raise ConfigError(f"rail_of_core references missing rails: {rail_of_core}")
        self.engine = engine
        self.rails = list(rails)
        self.rail_of_core = list(rail_of_core)
        self.guardband = guardband
        self.curve = curve
        self.limits = limits
        self.ladder = list(ladder)
        self.licenses = licenses
        self.config = config
        self.n_cores = len(rail_of_core)

        self.requested_freq_ghz = requested_freq_ghz
        self.freq_ghz = requested_freq_ghz
        self.granted: List[IClass] = [IClass.SCALAR_64] * self.n_cores
        self.active_cores: Set[int] = set()
        # Sorted tuple of ``active_cores``, kept current by
        # set_core_active for the _allowed_freq memo key.
        self._active_key: tuple = ()

        self._queues: List[Deque[_Request]] = [deque() for _ in rails]
        self._inflight: List[Optional[_Request]] = [None] * len(rails)
        self._rail_active: List[bool] = [False] * len(rails)
        self._throttled: List[Set[int]] = [set() for _ in rails]
        self._freq_busy = False
        # Observability bookkeeping: when each rail's current throttle
        # window and the in-flight PLL relock began (None when inactive).
        self._throttle_since: List[Optional[float]] = [None] * len(rails)
        self._pll_since: Optional[float] = None

        #: Fired after any throttle/frequency state change; the system
        #: hooks this to recompute execution rates and record traces.
        self.on_state_change: Optional[Callable[[], None]] = None
        # _allowed_freq memo: the electrical models and ladder are fixed
        # for the PMU's lifetime, so the answer depends only on the
        # requested frequency, the candidate coverage, the active-core
        # set and the current grants — all captured in the key.
        self._allowed_cache: Dict[tuple, float] = {}
        #: Count of voltage transitions issued, per rail (for reports).
        self.transitions_issued: List[int] = [0] * len(rails)

        if config.secure_mode:
            # Secure mode fixes the operating point at boot: the fastest
            # frequency whose worst-case (all cores at the power-virus
            # level) fits the electrical limits, with the rail pinned at
            # the matching guardband.  Nothing ever transitions at run
            # time, so nothing ever throttles (Section 7).
            self.freq_ghz = self._secure_allowed_freq()
            self._pin_secure_mode()

    # -- public queries ------------------------------------------------------

    def is_core_throttled(self, core: int) -> bool:
        """Whether current management is throttling ``core`` right now."""
        if self._freq_busy:
            return True
        return core in self._throttled[self.rail_of_core[core]]

    def throttled_cores(self) -> Set[int]:
        """All cores currently throttled."""
        if self._freq_busy:
            return set(range(self.n_cores))
        cores: Set[int] = set()
        for group in self._throttled:
            cores |= group
        return cores

    def rail_of(self, core: int) -> VoltageRegulator:
        """The rail powering ``core``."""
        return self.rails[self.rail_of_core[core]]

    def core_voltage(self, core: int, t_ns: Optional[float] = None) -> float:
        """Rail voltage seen by ``core`` at ``t_ns`` (default: now)."""
        when = self.engine.now if t_ns is None else t_ns
        return self.rail_of(core).voltage_at(when)

    # -- requests from local PMUs ---------------------------------------------

    def request_up(self, core: int, iclass: IClass) -> bool:
        """Ask for a guardband covering ``iclass`` on ``core``.

        Returns True when the request had to queue (the core is now
        throttled until the rail settles), False when the current grant
        already covers the class (secure mode always returns False).
        """
        self._check_core(core)
        if self.config.secure_mode or iclass <= self.granted[core]:
            return False
        rail = self.rail_of_core[core]
        pending_target = self._pending_target(rail, core)
        if pending_target is not None and pending_target >= iclass:
            # Already queued at this or a higher level; stay throttled.
            return True
        self._enqueue(rail, core, iclass, up=True)
        self._throttled[rail].add(core)
        tracer = _obs()
        if tracer.enabled:
            tracer.metrics.counter("pmu.requests_queued").inc()
            if self._throttle_since[rail] is None:
                self._throttle_since[rail] = self.engine.now
            tracer.instant(
                "pmu.queue_up", "pmu", self.engine.now, track=f"rail{rail}",
                args={"core": core, "iclass": iclass.name,
                      "queue_depth": len(self._queues[rail])},
            )
        self._notify()
        self._kick(rail)
        return True

    def request_down(self, core: int, new_requirement: IClass) -> None:
        """Report that ``core``'s reset-time window relaxed its needs."""
        self._check_core(core)
        if self.config.secure_mode or new_requirement >= self.granted[core]:
            return
        rail = self.rail_of_core[core]
        self._enqueue(rail, core, new_requirement, up=False)
        tracer = _obs()
        if tracer.enabled:
            tracer.metrics.counter("pmu.downgrades_queued").inc()
            tracer.instant(
                "pmu.queue_down", "pmu", self.engine.now, track=f"rail{rail}",
                args={"core": core, "iclass": new_requirement.name},
            )
        self._kick(rail)

    def set_requested_freq(self, freq_ghz: float) -> None:
        """Governor request for a new package frequency."""
        if freq_ghz <= 0:
            raise ConfigError(f"frequency must be positive, got {freq_ghz}")
        self.requested_freq_ghz = freq_ghz
        self._reconcile_frequency()

    def set_core_active(self, core: int, active: bool) -> None:
        """Track which cores are executing (affects licenses and limits).

        Idle cores are clock-gated: they draw no dynamic current and do
        not count toward the turbo-license active-core count, so the
        package may clock up when cores go idle and must re-check limits
        when they wake.
        """
        self._check_core(core)
        changed = (core in self.active_cores) != active
        if not changed:
            return
        if active:
            self.active_cores.add(core)
        else:
            self.active_cores.discard(core)
        self._active_key = tuple(sorted(self.active_cores))
        self._reconcile_frequency()

    # -- internals --------------------------------------------------------------

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.n_cores:
            raise ConfigError(f"no such core: {core}")

    def _notify(self) -> None:
        if self.on_state_change is not None:
            self.on_state_change()

    def _enqueue(self, rail: int, core: int, target: IClass, up: bool) -> None:
        """Append a transition request, honouring the queue-depth bound.

        With ``queue_depth == 0`` (the default) every request becomes
        its own single-core entry — the serialized mailbox the paper
        measures.  At a full bounded queue the request coalesces into
        the newest queued entry of the same direction, so the cores'
        levels are granted together by one transition; only when no
        same-direction entry is queued does the entry count grow.
        """
        queue = self._queues[rail]
        depth = self.config.queue_depth
        if depth > 0 and len(queue) >= depth:
            for req in reversed(queue):
                if req.up == up:
                    req.merge(core, target)
                    return
        queue.append(_Request({core: target}, up=up))

    def _pending_target(self, rail: int, core: int) -> Optional[IClass]:
        """Highest level ``core`` has queued or in flight on ``rail``."""
        best: Optional[IClass] = None
        inflight = self._inflight[rail]
        candidates = list(self._queues[rail])
        if inflight is not None:
            candidates.append(inflight)
        for req in candidates:
            if req.up and core in req.targets:
                target = req.targets[core]
                if best is None or target > best:
                    best = target
        return best

    def _classes_with(self, targets: Dict[int, IClass]) -> List[IClass]:
        """Per-core covered classes if ``targets`` were all granted."""
        classes = list(self.granted)
        for core, target in targets.items():
            classes[core] = target
        return classes

    def _allowed_freq(self, classes: Sequence[IClass]) -> float:
        """Fastest legal frequency for the given per-core coverage.

        Only *active* cores consume dynamic current and count toward the
        turbo license; idle cores are clock-gated.  A core that is in
        ``classes`` above its grant is being woken, so it always counts.
        """
        key = (self.requested_freq_ghz, tuple(classes),
               self._active_key, tuple(self.granted))
        cached = self._allowed_cache.get(key)
        if cached is not None:
            return cached
        active = [
            iclass
            for core, iclass in enumerate(classes)
            if core in self.active_cores or iclass > self.granted[core]
        ]
        if not active:
            active = [IClass.SCALAR_64]
        if self.config.turbo_license_limit:
            # License every core at the power-virus class regardless of
            # what actually runs: the ceiling becomes grant-independent,
            # so guardband traffic never triggers a frequency change.
            license_classes: Sequence[IClass] = (
                [IClass.HEAVY_512] * self.n_cores)
        else:
            license_classes = active
        ceiling = min(
            self.requested_freq_ghz,
            self.licenses.package_ceiling(license_classes),
        )
        allowed = self.limits.max_allowed(ceiling, active, self.ladder).freq_ghz
        self._allowed_cache[key] = allowed
        return allowed

    def _live_targets(self, req: _Request) -> Dict[int, IClass]:
        """The entry's targets that still change their core's grant."""
        if req.up:
            return {core: target for core, target in req.targets.items()
                    if target > self.granted[core]}
        return {core: target for core, target in req.targets.items()
                if target < self.granted[core]}

    def _kick(self, rail: int) -> None:
        """Start the next queued transition on ``rail`` if it is idle."""
        if self._rail_active[rail] or self._freq_busy:
            return
        queue = self._queues[rail]
        while queue:
            req = queue.popleft()
            live = self._live_targets(req)
            if not live:
                continue  # stale: previous transitions already covered it
            req.targets = live
            if req.up and self.config.grant_policy == "coalesced":
                self._absorb_up_entries(rail, req)
            self._begin_transition(rail, req)
            return
        self._release_if_settled(rail)

    def _absorb_up_entries(self, rail: int, req: _Request) -> None:
        """Coalesced policy: drain every queued up-entry into ``req``.

        The batched transition ramps straight to the collective
        worst-case level, so every waiting core is granted by a single
        settle; queued down-entries keep their order behind it.
        """
        queue = self._queues[rail]
        kept = [other for other in queue if not other.up]
        for other in queue:
            if other.up:
                for core, target in self._live_targets(other).items():
                    req.merge(core, target)
        queue.clear()
        queue.extend(kept)

    def _begin_transition(self, rail: int, req: _Request) -> None:
        self._rail_active[rail] = True
        self._inflight[rail] = req
        classes = self._classes_with(req.targets)
        allowed = self._allowed_freq(classes)
        if abs(allowed - self.freq_ghz) > 1e-9 and req.up:
            self._begin_freq_change(allowed, lambda: self._command_rail(rail, req))
        else:
            self._command_rail(rail, req)

    def _rail_classes(self, rail: int, classes: Sequence[IClass]) -> List[IClass]:
        """The per-core classes of the cores powered by ``rail``."""
        return [
            classes[core]
            for core, core_rail in enumerate(self.rail_of_core)
            if core_rail == rail
        ]

    def _command_rail(self, rail: int, req: _Request) -> None:
        classes = self._rail_classes(
            rail, self._classes_with(req.targets),
        )
        baseline = self.curve.vcc_for(self.freq_ghz)
        target = self.guardband.target_vcc(baseline, classes, self.freq_ghz)
        regulator = self.rails[rail]
        settle_ns = regulator.command(self.engine.now, target)
        self.transitions_issued[rail] += 1
        delay = max(0.0, settle_ns - self.engine.now)
        self.engine.schedule(delay, self._on_settle, rail, req)

    def _on_settle(self, rail: int, req: _Request) -> None:
        for core, target in req.targets.items():
            self.granted[core] = target
        self._inflight[rail] = None
        self._rail_active[rail] = False
        if not req.up:
            # Guardbands relaxed: the package may clock up again.
            self._reconcile_frequency()
        if self._queues[rail]:
            self._kick(rail)
        else:
            self._release_if_settled(rail)

    def _release_if_settled(self, rail: int) -> None:
        """Unthrottle a rail's waiters once it is idle with an empty queue.

        Per the paper's measurement, the PMU 'stops throttling the cores
        once the shared VR is settled at the required level by both
        cores' — release is collective, not per-request.
        """
        if self._rail_active[rail] or self._queues[rail]:
            return
        if self._throttled[rail]:
            released = len(self._throttled[rail])
            self._throttled[rail].clear()
            tracer = _obs()
            if tracer.enabled:
                since = self._throttle_since[rail]
                self._throttle_since[rail] = None
                if since is not None:
                    residency = self.engine.now - since
                    tracer.metrics.histogram(
                        "pmu.throttle_residency_ns").observe(residency)
                    tracer.complete(
                        "pmu.throttle", "pmu", since, residency,
                        track=f"rail{rail}", args={"cores_released": released},
                    )
            self._notify()

    # -- frequency management -----------------------------------------------------

    def _secure_allowed_freq(self) -> float:
        """Fastest frequency whose all-core worst case fits the limits."""
        classes = [IClass.HEAVY_512] * self.n_cores
        ceiling = min(self.requested_freq_ghz,
                      self.licenses.package_ceiling(classes))
        return self.limits.max_allowed(ceiling, classes, self.ladder).freq_ghz

    def _reconcile_frequency(self) -> None:
        """Move toward the fastest legal frequency for current grants."""
        if self.config.secure_mode:
            # The secure operating point is static; governor changes
            # re-clamp it instantly (a boot-time setting, not a runtime
            # transition — nothing throttles).
            new_freq = self._secure_allowed_freq()
            if abs(new_freq - self.freq_ghz) > 1e-9:
                self.freq_ghz = new_freq
                self._notify()
            return
        if self._freq_busy:
            return
        allowed = self._allowed_freq(self.granted)
        if abs(allowed - self.freq_ghz) > 1e-9:
            self._begin_freq_change(allowed, self._retarget_rails)

    def _begin_freq_change(self, new_freq: float,
                           continuation: Optional[Callable[[], None]]) -> None:
        if self._freq_busy:
            raise SimulationError("frequency change while PLL busy")
        self._freq_busy = True
        self._pll_since = self.engine.now
        self._notify()
        self.engine.schedule(
            self.config.pll_relock_ns, self._finish_freq_change, new_freq,
            continuation,
        )

    def _finish_freq_change(self, new_freq: float,
                            continuation: Optional[Callable[[], None]]) -> None:
        tracer = _obs()
        if tracer.enabled and self._pll_since is not None:
            relock = self.engine.now - self._pll_since
            tracer.metrics.counter("pmu.freq_changes").inc()
            tracer.metrics.histogram("pmu.pll_relock_ns").observe(relock)
            tracer.complete(
                "pmu.pll_relock", "pmu", self._pll_since, relock, track="pll",
                args={"to_ghz": new_freq},
            )
        self._pll_since = None
        self.freq_ghz = new_freq
        self._freq_busy = False
        self._notify()
        if continuation is not None:
            continuation()
        else:
            self._retarget_rails()

    def _retarget_rails(self) -> None:
        """After a grant-free frequency change, re-seat idle rails.

        A frequency change moves the V/F baseline, so idle rails drift
        from their correct position; command them to the new target.
        Rails with queued work will pick the new baseline up in their
        next transition anyway.
        """
        baseline = self.curve.vcc_for(self.freq_ghz)
        for rail_idx, regulator in enumerate(self.rails):
            if self._rail_active[rail_idx] or self._queues[rail_idx]:
                self._kick(rail_idx)
                continue
            classes = [
                self.granted[core]
                for core, rail in enumerate(self.rail_of_core)
                if rail == rail_idx
            ]
            target = self.guardband.target_vcc(baseline, classes, self.freq_ghz)
            if abs(regulator.settled_voltage() - regulator.spec.quantize_vid(target)) > 1e-9:
                self._rail_active[rail_idx] = True
                settle_ns = regulator.command(self.engine.now, target)
                self.transitions_issued[rail_idx] += 1
                self.engine.schedule(
                    max(0.0, settle_ns - self.engine.now),
                    self._on_retarget_settle, rail_idx,
                )

    def _on_retarget_settle(self, rail: int) -> None:
        self._rail_active[rail] = False
        if self._queues[rail]:
            self._kick(rail)
        else:
            self._release_if_settled(rail)

    # -- secure mode -----------------------------------------------------------------

    def _pin_secure_mode(self) -> None:
        """Pin grants and rails at the worst-case power-virus level."""
        self.granted = [IClass.HEAVY_512] * self.n_cores
        baseline = self.curve.vcc_for(self.freq_ghz)
        for rail_idx, regulator in enumerate(self.rails):
            classes = [
                IClass.HEAVY_512
                for core, rail in enumerate(self.rail_of_core)
                if rail == rail_idx
            ]
            target = self.guardband.target_vcc(baseline, classes, self.freq_ghz)
            regulator.force_level(min(target, regulator.spec.vcc_max))

    def secure_mode_power_overhead(self, typical_class: IClass) -> float:
        """Fractional power increase of secure mode versus typical code.

        Power scales with V^2 (Section 2); pinning the rail at the virus
        guardband instead of the guardband of ``typical_class`` costs
        ``(V_secure^2 - V_typical^2) / V_typical^2``.
        """
        baseline = self.curve.vcc_for(self.freq_ghz)
        classes_typical = [typical_class] * self.n_cores
        classes_secure = [IClass.HEAVY_512] * self.n_cores
        v_typical = self.guardband.target_vcc(baseline, classes_typical, self.freq_ghz)
        v_secure = self.guardband.target_vcc(baseline, classes_secure, self.freq_ghz)
        return (v_secure ** 2 - v_typical ** 2) / (v_typical ** 2)
