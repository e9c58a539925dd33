"""Declarative scenario specifications (the scenario library's grammar).

A :class:`ScenarioSpec` is a frozen, validated description of one
complete experiment: which processor preset (and overrides) to build,
which mitigation options to apply, which covert tenants share the
package and where they are pinned, what OS noise, faults, and
background workloads surround them, and what payload the tenants
transfer.  Everything is plain data with a dict/TOML-friendly
:meth:`ScenarioSpec.from_mapping` / :meth:`ScenarioSpec.to_mapping`
round-trip, so scenarios can live in files and be digested by
:mod:`repro.verify` without touching code.  Both directions are built
from the dataclass fields and their declared types: a mapping value or
constructor argument of the wrong type is rejected, never coerced.

Validation is front-loaded and actionable: unknown fields, impossible
topologies (a tenant on a core the preset does not have, two tenants
sharing a hardware thread, SMT placement on a part without SMT), bad
payloads, and unparseable fault specs all raise
:class:`~repro.errors.ConfigError` naming the offending field and the
valid alternatives at construction time, never mid-run.

See docs/SCENARIOS.md for the full grammar and worked examples.
"""

# No ``from __future__ import annotations``: the mapping codec reads
# each field's declared type straight from ``dataclasses.fields()``.

import re
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import (
    Any, Dict, Iterable, Mapping, Optional, Tuple, Type, TypeVar, Union,
    get_args, get_origin,
)

from repro.core.channel import ChannelConfig
from repro.errors import ConfigError, bounded, check_fields
from repro.faults import parse_fault_spec
from repro.isa.instructions import IClass
from repro.isa.workload import (
    PhaseTrace,
    browser_like_trace,
    calculix_like_trace,
    ml_inference_like_trace,
    power_virus,
    random_phi_schedule,
    sevenzip_like_trace,
    video_codec_like_trace,
)
from repro.soc.config import PRESETS, ProcessorConfig, preset
from repro.soc.noise import NoiseConfig
from repro.soc.system import SystemOptions

#: Covert-channel placements a :class:`TenantSpec` accepts, mirroring
#: the paper's three channels (Section 4.3): same hardware thread,
#: across SMT siblings, across physical cores.
CHANNEL_KINDS: Tuple[str, ...] = ("thread", "smt", "cores")

#: Workload kinds a :class:`WorkloadSpec` can synthesise.  All but
#: ``replay`` map to the factories in :mod:`repro.isa.workload`;
#: ``replay`` plays back an explicit recorded phase list.
WORKLOAD_KINDS: Tuple[str, ...] = (
    "browser", "sevenzip", "calculix", "ml_inference", "video_codec",
    "power_virus", "phi_schedule", "replay",
)

#: Scalar :class:`~repro.soc.config.ProcessorConfig` fields a scenario
#: may override on top of its preset.  Deliberately narrow: structural
#: fields (V/F points, turbo ceilings, thermal spec) stay preset-owned.
OVERRIDABLE_FIELDS: Tuple[str, ...] = (
    "n_cores", "base_freq_ghz", "reset_time_us", "pll_relock_ns",
    "vr_slew_mv_per_us", "vr_command_latency_ns", "vid_step_mv",
    "r_ll_mohm", "droop_margin_mv",
)

#: Valid scenario names: lowercase identifiers (also golden file stems).
_NAME_RE = re.compile(r"[a-z][a-z0-9_]*")


def _require_keys(mapping: Mapping[str, Any], valid: Iterable[str],
                  context: str) -> None:
    """Reject unknown mapping keys with the valid alternatives listed."""
    valid = tuple(valid)
    unknown = sorted(set(mapping) - set(valid))
    if unknown:
        raise ConfigError(
            f"unknown {context} field(s) {', '.join(map(repr, unknown))}; "
            f"valid fields: {', '.join(valid)}")


#: The switches a scenario's ``options`` mapping may carry, in emission
#: order.  ``disable_throttling`` is an ablation switch, not part of the
#: scenario grammar.
OPTION_KEYS: Tuple[str, ...] = (
    "per_core_vr", "ldo_rails", "improved_throttling", "secure_mode",
    "turbo_license_limit",
)


def options_from_mapping(mapping: Mapping[str, Any]) -> SystemOptions:
    """Scenario options from a plain dict.

    Unknown keys and non-bool values raise ConfigError naming the key
    (a JSON ``"false"`` string must not switch a defence on).
    """
    _require_keys(mapping, OPTION_KEYS, "options")
    for key, value in mapping.items():
        if not isinstance(value, bool):
            raise ConfigError(
                f"options.{key} must be true or false, got {value!r}")
    return SystemOptions(**dict(mapping))


def options_to_mapping(options: SystemOptions) -> Dict[str, bool]:
    """Canonical plain-dict form of scenario options.

    The four Section-7 switches are always explicit;
    ``turbo_license_limit`` is emitted only when set.  Run documents
    embed this mapping, so an unconditionally emitted new key would
    silently re-digest every committed golden — absent-means-False
    keeps pre-existing digests stable while the round-trip stays an
    identity.
    """
    mapping = {key: getattr(options, key) for key in OPTION_KEYS}
    if not mapping["turbo_license_limit"]:
        del mapping["turbo_license_limit"]
    return mapping


# -- the mapping codec --------------------------------------------------------

#: A mapping field (``overrides``, ``protocol``): stored as sorted
#: ``(key, value)`` pairs so a frozen spec stays hashable, emitted as a
#: dict.  Its values are checked by the config they override.
Pairs = Tuple[Tuple[str, Any], ...]

_Spec = TypeVar("_Spec", bound="_MappingCodec")


def _label(cls: type) -> str:
    """How errors name a spec class: ``TenantSpec`` is ``tenant``."""
    return cls.__name__[:-len("Spec")].lower()


def _as_mapping(value: Any, path: str) -> Mapping[str, Any]:
    """``value`` itself if it is a mapping; else ConfigError naming ``path``."""
    if not isinstance(value, Mapping):
        raise ConfigError(f"{path} must be a mapping, got {value!r}")
    return value


def _decode(kind: Any, value: Any, path: str) -> Any:
    """A mapping value of declared type ``kind``, given its structure.

    A mapping becomes a nested spec, ``SystemOptions`` or ``(key,
    value)`` pairs, and a list of specs a tuple of them.  Every other
    value is passed on as read: the spec's constructor checks it.
    """
    if kind is SystemOptions:
        return options_from_mapping(_as_mapping(value, path))
    if is_dataclass(kind):
        return _decode_spec(kind, value, path)
    if kind is Pairs:
        return tuple(_as_mapping(value, path).items())
    origin, args = get_origin(kind), get_args(kind)
    if origin is Union and value is not None:  # Optional[X]
        return _decode(args[0], value, path)
    if (origin is tuple and args[-1] is Ellipsis
            and isinstance(value, (list, tuple))):
        return tuple(_decode(args[0], item, f"{path}[{index}]")
                     for index, item in enumerate(value))
    return value


def _decode_spec(cls: Type[_Spec], value: Any, path: str) -> _Spec:
    """Build ``cls`` from a mapping; errors name the field's ``path``."""
    label = path or _label(cls)
    mapping = _as_mapping(value, label)
    spec_fields = fields(cls)
    _require_keys(mapping, [f.name for f in spec_fields], label)
    kwargs: Dict[str, Any] = {}
    for f in spec_fields:
        if f.name in mapping:
            kwargs[f.name] = _decode(f.type, mapping[f.name],
                                     f"{path}.{f.name}" if path else f.name)
        elif f.default is MISSING:
            raise ConfigError(f"{label} mapping needs a {f.name!r} field")
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        # A nested spec's field error names the spec by its class
        # (``tenant.sender_core``); name it by its place in the document.
        own = _label(cls) + "."
        if not path or not str(exc).startswith(own):
            raise
        raise ConfigError(f"{path}.{str(exc)[len(own):]}") from None


def _encode(value: Any) -> Any:
    """Plain JSON-typed form of a stored value (specs as dicts)."""
    if isinstance(value, SystemOptions):
        return options_to_mapping(value)
    if is_dataclass(value):
        return {f.name: (dict(getattr(value, f.name)) if f.type is Pairs
                         else _encode(getattr(value, f.name)))
                for f in fields(value)}
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


class _MappingCodec:
    """The mapping round-trip of a spec, built from its dataclass fields.

    Construction checks every field with
    :func:`~repro.errors.check_fields`, so a spec built in code holds
    exactly what :meth:`from_mapping` would accept, and equal specs
    compare equal however they were spelt (lists become tuples, ints in
    float fields floats, mapping fields sorted pairs).
    """

    def __post_init__(self) -> None:
        check_fields(self, label=_label(type(self)))
        self._validate()

    def _validate(self) -> None:
        """Value checks beyond the declared field types and bounds."""

    @classmethod
    def from_mapping(cls: Type[_Spec], mapping: Mapping[str, Any]) -> _Spec:
        """Build a validated spec from a plain (TOML/JSON-shaped) dict.

        Unknown keys, missing required keys and values of the wrong
        type raise :class:`~repro.errors.ConfigError` naming the field
        (``tenants[0].sender_core``); values are never coerced.
        """
        return _decode_spec(cls, mapping, "")

    def to_mapping(self) -> Dict[str, Any]:
        """The canonical plain-dict form: every field, in declaration order.

        Stored values are emitted as-is (defaults included), so the
        output is stable input for digests, goldens, docs generation
        and :meth:`from_mapping`.
        """
        return _encode(self)


@dataclass(frozen=True)
class NoiseSpec(_MappingCodec):
    """OS-noise profile applied to every tenant hardware thread.

    The first four fields mirror :class:`~repro.soc.noise.NoiseConfig`;
    ``horizon_ms`` bounds how long the noise processes run (covering
    calibration plus transfer is enough) and ``seed`` makes the arrival
    processes reproducible.
    """

    interrupt_rate_per_s: float = 500.0
    interrupt_mean_us: float = 3.0
    ctx_switch_rate_per_s: float = 100.0
    ctx_switch_mean_us: float = 25.0
    horizon_ms: float = bounded(50.0, gt=0)
    seed: int = 1

    def _validate(self) -> None:
        """The four noise fields are bounded by :class:`NoiseConfig`."""
        try:
            self.config()
        except ConfigError as exc:
            raise ConfigError(f"noise.{exc}") from None

    def config(self) -> NoiseConfig:
        """The :class:`~repro.soc.noise.NoiseConfig` this spec describes."""
        return NoiseConfig(
            interrupt_rate_per_s=self.interrupt_rate_per_s,
            interrupt_mean_us=self.interrupt_mean_us,
            ctx_switch_rate_per_s=self.ctx_switch_rate_per_s,
            ctx_switch_mean_us=self.ctx_switch_mean_us,
        )


@dataclass(frozen=True)
class WorkloadSpec(_MappingCodec):
    """One background workload pinned to a hardware thread.

    Parameters
    ----------
    kind:
        One of :data:`WORKLOAD_KINDS`.  The synthetic kinds call the
        matching :mod:`repro.isa.workload` factory; ``replay`` plays
        the explicit ``phases`` list back verbatim (trace-driven replay
        of a recorded :class:`~repro.isa.workload.PhaseTrace`).
    core / smt_slot:
        Hardware-thread pinning; collisions with tenants are rejected
        by :class:`ScenarioSpec`.
    duration_ms:
        Trace length for the synthetic kinds (ignored by ``replay``,
        where the phases carry their own durations).
    seed:
        Factory seed for the randomised synthetic kinds.
    rate_per_s:
        PHI-burst rate, used by ``phi_schedule`` only.
    phases:
        ``replay`` payload: ``((iclass_name, duration_ns), ...)`` pairs
        where ``iclass_name`` is an :class:`~repro.isa.instructions.IClass`
        member name (``"SCALAR_64"``, ``"HEAVY_256"``, ...).
    """

    kind: str
    core: int = bounded(1, ge=0)
    smt_slot: int = bounded(0, ge=0, le=1)
    duration_ms: float = bounded(20.0, gt=0)
    seed: int = 7
    rate_per_s: float = bounded(200.0, ge=0)
    phases: Tuple[Tuple[str, float], ...] = ()

    def _validate(self) -> None:
        """Known kind and well-formed phases."""
        if self.kind not in WORKLOAD_KINDS:
            raise ConfigError(
                f"unknown workload kind {self.kind!r}; "
                f"valid kinds: {', '.join(WORKLOAD_KINDS)}")
        if self.kind == "replay":
            if not self.phases:
                raise ConfigError(
                    "a 'replay' workload needs a non-empty 'phases' list of "
                    "[iclass_name, duration_ns] pairs")
            for name, duration in self.phases:
                if name not in IClass.__members__:
                    raise ConfigError(
                        f"unknown instruction class {name!r} in replay "
                        f"phases; valid classes: "
                        f"{', '.join(IClass.__members__)}")
                if duration <= 0:
                    raise ConfigError(
                        f"replay phase durations must be positive ns, "
                        f"got {duration} for {name}")
        elif self.phases:
            raise ConfigError(
                f"'phases' is only valid for kind 'replay', "
                f"not {self.kind!r}")

    @classmethod
    def replay(cls, trace: PhaseTrace, core: int = 1,
               smt_slot: int = 0) -> "WorkloadSpec":
        """Capture a recorded trace as a replayable workload spec."""
        phases = tuple((phase.iclass.name, float(phase.duration_ns))
                       for phase in trace)
        duration_ms = max(trace.duration_ns / 1e6, 1e-6)
        return cls(kind="replay", core=core, smt_slot=smt_slot,
                   duration_ms=duration_ms, phases=phases)

    def build_trace(self, max_vector_bits: int = 512) -> PhaseTrace:
        """Materialise the workload as a phase trace.

        ``max_vector_bits`` caps vector widths to what the target part
        executes (an AVX2-only part gets 256-bit power viruses and PHI
        bursts).
        """
        if self.kind == "replay":
            trace = PhaseTrace(name="replay")
            for name, duration_ns in self.phases:
                trace.append(IClass[name], duration_ns)
            return trace
        if self.kind == "browser":
            return browser_like_trace(self.duration_ms, seed=self.seed)
        if self.kind == "sevenzip":
            return sevenzip_like_trace(self.duration_ms, seed=self.seed)
        if self.kind == "calculix":
            return calculix_like_trace(self.duration_ms, seed=self.seed)
        if self.kind == "ml_inference":
            return ml_inference_like_trace(self.duration_ms,
                                           width_bits=max_vector_bits,
                                           seed=self.seed)
        if self.kind == "video_codec":
            return video_codec_like_trace(self.duration_ms, seed=self.seed)
        if self.kind == "power_virus":
            return power_virus(self.duration_ms, width_bits=max_vector_bits)
        # phi_schedule: restrict burst classes to the part's vector width.
        usable = tuple(c for c in (IClass.HEAVY_128, IClass.LIGHT_256,
                                   IClass.HEAVY_256, IClass.HEAVY_512)
                       if c.width_bits <= max_vector_bits)
        return random_phi_schedule(self.duration_ms, self.rate_per_s,
                                   classes=usable, seed=self.seed)


@dataclass(frozen=True)
class TenantSpec(_MappingCodec):
    """One covert sender/receiver pair (a tenant) and its placement.

    Parameters
    ----------
    channel:
        ``"thread"`` (IccThreadCovert: both parties time-share one
        hardware thread), ``"smt"`` (IccSMTcovert: SMT siblings of one
        core), or ``"cores"`` (IccCoresCovert: two physical cores
        coupled through the shared rail).
    sender_core / receiver_core:
        Physical core pinning.  ``thread``/``smt`` tenants live on one
        core, so both fields must match; ``cores`` tenants need two
        distinct cores.
    offset_fraction:
        This tenant's slot-clock phase as a fraction of the common slot
        (``0 <= f < 1``).  Spreading tenants across the slot moves
        their voltage transitions out of each other's measurement
        windows — the interference scenarios' main dial.
    """

    channel: str
    sender_core: int = bounded(0, ge=0)
    receiver_core: int = bounded(1, ge=0)
    offset_fraction: float = bounded(0.0, ge=0, lt=1)

    def _validate(self) -> None:
        """Known channel and a placement it allows."""
        if self.channel not in CHANNEL_KINDS:
            raise ConfigError(
                f"unknown tenant channel {self.channel!r}; "
                f"valid channels: {', '.join(CHANNEL_KINDS)}")
        if self.channel in ("thread", "smt"):
            if self.sender_core != self.receiver_core:
                raise ConfigError(
                    f"a {self.channel!r} tenant places both parties on one "
                    f"core; set receiver_core == sender_core "
                    f"(got {self.sender_core} vs {self.receiver_core})")
        elif self.sender_core == self.receiver_core:
            raise ConfigError(
                f"a 'cores' tenant needs two distinct cores, got both "
                f"on core {self.sender_core}")

    def hardware_threads(self) -> Tuple[Tuple[int, int], ...]:
        """``(core, smt_slot)`` pairs this tenant occupies exclusively."""
        if self.channel == "thread":
            return ((self.sender_core, 0),)
        if self.channel == "smt":
            return ((self.sender_core, 0), (self.sender_core, 1))
        return ((self.sender_core, 0), (self.receiver_core, 0))


@dataclass(frozen=True)
class ScenarioSpec(_MappingCodec):
    """A complete declarative scenario (see the module docstring).

    Parameters
    ----------
    name / description:
        Identity and one-line documentation; the name is also the
        registry key, the CLI argument and the golden file stem.
    preset / overrides:
        Processor: a :data:`repro.soc.config.PRESETS` name plus scalar
        field overrides from :data:`OVERRIDABLE_FIELDS`.
    options:
        Mitigation switches (the :data:`OPTION_KEYS` of
        :class:`~repro.soc.system.SystemOptions`).
    protocol:
        :class:`~repro.core.channel.ChannelConfig` field overrides
        applied to every tenant's channel (e.g. shorter
        ``training_rounds`` for cheap scenarios).
    tenants:
        The covert pairs sharing the package (at least one).
    noise / faults / background:
        Optional OS-noise profile, :mod:`repro.faults` spec string
        (empty = none), and background workloads.
    payload_hex:
        The transferred payload (hex).
    """

    name: str
    description: str
    preset: str = "cannon_lake"
    overrides: Pairs = ()
    options: SystemOptions = SystemOptions()
    protocol: Pairs = ()
    tenants: Tuple[TenantSpec, ...] = (TenantSpec("thread", 0, 0),)
    noise: Optional[NoiseSpec] = None
    faults: str = ""
    background: Tuple[WorkloadSpec, ...] = ()
    payload_hex: str = "4943"

    def _validate(self) -> None:
        """Front-loaded validation; every failure names its field."""
        for name in ("overrides", "protocol"):
            pairs = getattr(self, name)
            keys = [key for key, _ in pairs]
            for key in keys:
                if keys.count(key) > 1:
                    raise ConfigError(f"scenario.{name} sets {key!r} twice")
            object.__setattr__(self, name, tuple(sorted(pairs)))
        if not _NAME_RE.fullmatch(self.name):
            raise ConfigError(
                f"scenario name must be a lowercase identifier "
                f"([a-z][a-z0-9_]*), got {self.name!r}")
        if not self.description:
            raise ConfigError(f"scenario {self.name!r} needs a description")
        if self.options.disable_throttling:
            raise ConfigError(
                f"options.disable_throttling is an ablation switch, not a "
                f"scenario option; valid options: {', '.join(OPTION_KEYS)}")
        if self.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {self.preset!r}; "
                f"valid presets: {', '.join(PRESETS)}")
        for key, _ in self.overrides:
            if key not in OVERRIDABLE_FIELDS:
                raise ConfigError(
                    f"override {key!r} is not allowed; overridable fields: "
                    f"{', '.join(OVERRIDABLE_FIELDS)}")
        config = self.processor_config()  # ProcessorConfig re-validates
        base = preset(self.preset)
        if config.n_cores > base.n_cores:
            raise ConfigError(
                f"n_cores override {config.n_cores} exceeds the "
                f"{self.preset!r} preset's {base.n_cores} cores (its "
                f"turbo-ceiling rows bound the core count); pick a bigger "
                f"preset such as 'skylake_sp'")
        valid_protocol = tuple(f.name for f in fields(ChannelConfig))
        for key, _ in self.protocol:
            if key not in valid_protocol:
                raise ConfigError(
                    f"protocol override {key!r} is not a ChannelConfig "
                    f"field; valid fields: {', '.join(valid_protocol)}")
        self.channel_config()  # ChannelConfig re-validates values
        try:
            payload = bytes.fromhex(self.payload_hex)
        except ValueError as exc:
            raise ConfigError(
                f"payload_hex must be an even-length hex string, "
                f"got {self.payload_hex!r}") from exc
        if not payload:
            raise ConfigError("payload_hex must encode at least one byte")
        if self.faults:
            parse_fault_spec(self.faults)  # raises with the valid models
        if not self.tenants:
            raise ConfigError(
                f"scenario {self.name!r} needs at least one tenant")
        self._validate_topology(config)

    def _validate_topology(self, config: ProcessorConfig) -> None:
        """Check tenant/background placement against the processor."""
        occupied: Dict[Tuple[int, int], str] = {}
        for index, tenant in enumerate(self.tenants):
            label = f"tenant {index} ({tenant.channel})"
            if tenant.channel == "smt" and not config.supports_smt:
                raise ConfigError(
                    f"{label} needs SMT, but preset {self.preset!r} has "
                    f"smt_per_core=1; use an SMT part such as "
                    f"'cannon_lake' or 'skylake_sp'")
            for core in (tenant.sender_core, tenant.receiver_core):
                if core >= config.n_cores:
                    raise ConfigError(
                        f"{label} is pinned to core {core}, but the "
                        f"scenario's processor has only {config.n_cores} "
                        f"cores (0..{config.n_cores - 1})")
            self._claim(occupied, tenant.hardware_threads(), label)
        for index, workload in enumerate(self.background):
            label = f"background {index} ({workload.kind})"
            if workload.core >= config.n_cores:
                raise ConfigError(
                    f"{label} is pinned to core {workload.core}, but the "
                    f"scenario's processor has only {config.n_cores} "
                    f"cores (0..{config.n_cores - 1})")
            if workload.smt_slot >= config.smt_per_core:
                raise ConfigError(
                    f"{label} uses smt_slot {workload.smt_slot}, but "
                    f"preset {self.preset!r} has "
                    f"smt_per_core={config.smt_per_core}")
            self._claim(occupied,
                        ((workload.core, workload.smt_slot),), label)

    @staticmethod
    def _claim(occupied: Dict[Tuple[int, int], str],
               threads: Tuple[Tuple[int, int], ...], label: str) -> None:
        """Claim hardware threads, rejecting double occupancy."""
        for thread in threads:
            holder = occupied.get(thread)
            if holder is not None:
                core, slot = thread
                raise ConfigError(
                    f"{label} collides with {holder} on core {core} "
                    f"smt_slot {slot}; every party needs its own "
                    f"hardware thread")
            occupied[thread] = label

    # -- materialisation helpers ---------------------------------------------

    def processor_config(self) -> ProcessorConfig:
        """The processor this scenario runs on (preset + overrides)."""
        return preset(self.preset).with_overrides(**dict(self.overrides))

    def channel_config(self) -> ChannelConfig:
        """The protocol configuration every tenant's channel uses."""
        return ChannelConfig(**dict(self.protocol))

    @property
    def payload(self) -> bytes:
        """The transferred payload as bytes."""
        return bytes.fromhex(self.payload_hex)
