"""Run declarative scenarios end to end (N tenants, one shared PMU).

Every tenant calibrates sequentially (alone on the machine), then all
feasible tenants transfer the payload *concurrently* on a common slot
length, each with its own slot-clock offset — a single pair is the
one-tenant case.  A tenant whose calibration fails (per-core LDO
rails, secure mode, drowned-out levels) is reported infeasible with
BER 1.0 rather than aborting the scenario — infeasibility is a result
the registry pins, not an error.

The paper's covert-channel sweeps in :mod:`repro.analysis.experiments`
build every point as a spec: Figure 14 points run through
:func:`run_scenario`, while Figure 12 and the resilience sweep take
their channel from :func:`baseline_channel`.  :func:`run_document` emits
the plain-JSON document the :mod:`repro.verify` golden gates digest.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core import IccCoresCovert, IccSMTcovert, IccThreadCovert
from repro.core.capacity import symbol_channel_capacity_bps
from repro.core.channel import CovertChannel
from repro.core.encoding import bytes_to_symbols
from repro.core.sync import SlotSchedule
from repro.errors import ProtocolError
from repro.scenarios.build import build_system
from repro.scenarios.registry import get_spec
from repro.scenarios.spec import ScenarioSpec, TenantSpec
from repro.soc.system import System
from repro.units import bits_per_second, ns_to_us

#: Bits one four-level symbol carries.
_BITS_PER_SYMBOL = 2


def make_channel(system: System, tenant: TenantSpec,
                 spec: ScenarioSpec) -> CovertChannel:
    """Construct ``tenant``'s channel on ``system``.

    Maps the tenant's channel kind to the concrete primitive —
    ``thread`` -> :class:`IccThreadCovert`, ``smt`` ->
    :class:`IccSMTcovert`, ``cores`` -> :class:`IccCoresCovert` — on
    the tenant's cores.  Shared by :func:`run_scenario`, the mitigation
    matrix's session cells, and the Figure 12 and resilience sweeps.
    """
    config = spec.channel_config()
    if tenant.channel == "thread":
        return IccThreadCovert(system, config, core=tenant.sender_core)
    if tenant.channel == "smt":
        return IccSMTcovert(system, config, core=tenant.sender_core)
    return IccCoresCovert(system, config,
                          sender_core=tenant.sender_core,
                          receiver_core=tenant.receiver_core)


def baseline_channel(kind: str, **changes: Any) -> CovertChannel:
    """One ``kind`` channel alone on a fresh system.

    Builds the registered ``baseline_{kind}`` scenario (``kind`` is one
    of :data:`~repro.scenarios.spec.CHANNEL_KINDS`: the tenant on core 0,
    and core 1 for ``cores``) with ``changes`` applied to its spec —
    e.g. ``faults=`` or ``noise=`` — and returns its tenant's channel.
    The demo, the verify demo scenario and the Figure 12, Figure 13 and
    resilience sweeps all take their single pair from here.
    """
    spec = dataclasses.replace(get_spec(f"baseline_{kind}"), **changes)
    return make_channel(build_system(spec), spec.tenants[0], spec)


@dataclass(frozen=True)
class TenantResult:
    """One tenant's outcome in a scenario run.

    ``feasible`` is False when calibration failed (no separable levels
    under this topology); then BER is pinned at 1.0 and the streams
    are empty.  ``symbols_received`` uses ``-1`` for slots where the
    receiver produced no measurement (lost to noise/faults) — those
    slots count as fully errored.  ``throughput_bps`` divides the
    payload bits by the symbol slots alone (``len(symbols) * slot_ns``),
    unlike :attr:`~repro.core.channel.TransferReport.throughput_bps`,
    which also counts the leading quiet slot and the trailing drain
    slot.
    """

    index: int
    channel: str
    sender_core: int
    receiver_core: int
    feasible: bool
    ber: float
    bits: int
    bit_errors: int
    throughput_bps: float
    goodput_bps: float
    capacity_bps: float
    symbols_sent: Tuple[int, ...] = ()
    symbols_received: Tuple[int, ...] = ()
    measurements_tsc: Tuple[float, ...] = ()

    def to_mapping(self) -> Dict[str, Any]:
        """Plain-JSON form for scenario documents."""
        return {
            "index": self.index,
            "channel": self.channel,
            "sender_core": self.sender_core,
            "receiver_core": self.receiver_core,
            "feasible": self.feasible,
            "ber": float(self.ber),
            "bits": self.bits,
            "bit_errors": self.bit_errors,
            "throughput_bps": float(self.throughput_bps),
            "goodput_bps": float(self.goodput_bps),
            "capacity_bps": float(self.capacity_bps),
            "symbols_sent": list(self.symbols_sent),
            "symbols_received": list(self.symbols_received),
            "measurements_tsc": [float(m) for m in self.measurements_tsc],
        }


@dataclass
class ScenarioRun:
    """Everything observed while running one scenario."""

    spec: ScenarioSpec
    tenants: List[TenantResult]
    slot_ns: float
    elapsed_ns: float
    freq_ghz_final: float
    transitions_issued: Tuple[int, ...]
    throttled_releases: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def mean_ber(self) -> float:
        """Average BER across all tenants (infeasible ones count 1.0)."""
        if not self.tenants:
            return 1.0
        return sum(t.ber for t in self.tenants) / len(self.tenants)

    @property
    def aggregate_goodput_bps(self) -> float:
        """Total correct payload bits per second across tenants."""
        return sum(t.goodput_bps for t in self.tenants)

    def document(self) -> Dict[str, Any]:
        """The digest document the verify goldens pin.

        Contains the canonical spec mapping (so a golden breaks when a
        registered scenario is redefined), every tenant's full symbol
        streams and measurements, and the system's end state.
        """
        return {
            "spec": self.spec.to_mapping(),
            "tenants": [t.to_mapping() for t in self.tenants],
            "slot_ns": float(self.slot_ns),
            "elapsed_ns": float(self.elapsed_ns),
            "mean_ber": float(self.mean_ber),
            "aggregate_goodput_bps": float(self.aggregate_goodput_bps),
            "system": {
                "freq_ghz_final": float(self.freq_ghz_final),
                "transitions_issued": list(self.transitions_issued),
            },
        }


def _infeasible(index: int, tenant: TenantSpec,
                n_symbols: int) -> TenantResult:
    """The pinned outcome of a tenant whose calibration failed."""
    bits = _BITS_PER_SYMBOL * n_symbols
    return TenantResult(
        index=index, channel=tenant.channel,
        sender_core=tenant.sender_core, receiver_core=tenant.receiver_core,
        feasible=False, ber=1.0, bits=bits, bit_errors=bits,
        throughput_bps=0.0, goodput_bps=0.0, capacity_bps=0.0,
    )


def run_scenario(spec: Union[ScenarioSpec, str]) -> ScenarioRun:
    """Run one scenario end to end; see the module docstring.

    ``spec`` is a :class:`~repro.scenarios.spec.ScenarioSpec` or a
    registered scenario name.
    """
    if isinstance(spec, str):
        spec = get_spec(spec)
    system = build_system(spec)
    symbols = bytes_to_symbols(spec.payload)
    channels: List[Optional[CovertChannel]] = []
    for tenant in spec.tenants:
        channel = make_channel(system, tenant, spec)
        try:
            channel.calibrate()
        except ProtocolError:
            channel = None
        channels.append(channel)

    feasible = [c for c in channels if c is not None]
    results: List[TenantResult] = []
    transfer_start_ns = system.now
    slot_ns = 0.0
    schedules: List[Optional[SlotSchedule]] = []
    readings: List[Optional[List[Optional[float]]]] = []
    if feasible:
        slot_ns = max(c.padded_slot_ns for c in feasible)
        epoch_ns = system.now + slot_ns
        for tenant, channel in zip(spec.tenants, channels):
            if channel is None:
                schedules.append(None)
                readings.append(None)
                continue
            schedule = channel.slot_schedule(
                epoch_ns + tenant.offset_fraction * slot_ns, slot_ns)
            measurements: List[Optional[float]] = [None] * len(symbols)
            channel._spawn_transaction_programs(schedule, list(symbols),
                                                measurements)
            schedules.append(schedule)
            readings.append(measurements)
        end_ns = max(s.slot_start(len(symbols))
                     for s in schedules if s is not None)
        end_ns += slot_ns + max(c._fault_slack_ns() for c in feasible)
        transfer_start_ns = epoch_ns
        system.run_until(end_ns)

    for index, (tenant, channel) in enumerate(zip(spec.tenants, channels)):
        if channel is None:
            results.append(_infeasible(index, tenant, len(symbols)))
            continue
        measurements = readings[index]
        assert measurements is not None and channel.calibrator is not None
        decoded = channel.calibrator.decode_all(
            [0.0 if m is None else float(m) for m in measurements])
        received: List[int] = []
        wrong = 0
        for sent, measurement, got in zip(symbols, measurements, decoded):
            if measurement is None:
                received.append(-1)
                wrong += _BITS_PER_SYMBOL
            else:
                received.append(got)
                wrong += bin((sent ^ got) & 0b11).count("1")
        bits = _BITS_PER_SYMBOL * len(symbols)
        ber = wrong / bits if bits else 0.0
        elapsed_ns = len(symbols) * slot_ns
        throughput = bits_per_second(bits, elapsed_ns)
        symbol_errors = sum(
            1 for sent, got in zip(symbols, received) if sent != got)
        capacity = symbol_channel_capacity_bps(
            ns_to_us(slot_ns), symbol_errors / len(symbols))
        results.append(TenantResult(
            index=index, channel=tenant.channel,
            sender_core=tenant.sender_core,
            receiver_core=tenant.receiver_core,
            feasible=True, ber=ber, bits=bits, bit_errors=wrong,
            throughput_bps=throughput,
            goodput_bps=throughput * (1.0 - ber),
            capacity_bps=capacity,
            symbols_sent=tuple(symbols),
            symbols_received=tuple(received),
            measurements_tsc=tuple(
                -1.0 if m is None else float(m) for m in measurements),
        ))

    return ScenarioRun(
        spec=spec,
        tenants=results,
        slot_ns=slot_ns,
        elapsed_ns=system.now - transfer_start_ns,
        freq_ghz_final=system.pmu.freq_ghz,
        transitions_issued=tuple(system.pmu.transitions_issued),
    )


def run_document(spec: Union[ScenarioSpec, str]) -> Dict[str, Any]:
    """Run a scenario and return its digest document (plain JSON)."""
    return run_scenario(spec).document()
