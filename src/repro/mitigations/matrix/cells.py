"""One matrix cell: attacker x defender, run and scored.

A cell's scenario is the attacker's channel baseline with the
defender's knobs grafted on (:func:`cell_spec`); :func:`run_cell` then
executes it with the attacker's protocol tier and scores the residual
channel.  ``run_cell`` is a picklable module-level task so the sweep
can fan it out over a :class:`~repro.runner.SweepRunner` pool.

Verdicts:

* ``defeated`` — the channel is gone: calibration found no separable
  levels, the residual BER is at/above the 0.25 decode wall, or no
  residual capacity survives;
* ``open`` — residual BER below 0.05: the defender changed nothing
  that matters;
* ``degraded`` — alive but paying: errors, retransmissions or
  recalibrations eat into capacity.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict

from repro.core.session import CovertSession
from repro.errors import CalibrationError, ConfigError, ProtocolError
from repro.mitigations.matrix.attackers import get_attacker, session_config
from repro.mitigations.matrix.defenders import Defender, get_defender
from repro.scenarios.build import build_system
from repro.scenarios.registry import get_spec
from repro.scenarios.run import make_channel, run_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.units import bits_per_second
from repro.verify.digest import content_digest

#: Residual BER at/above which a cell counts as defeated: past the
#: decode wall even repetition coding cannot recover the stream.
DEFEAT_BER: float = 0.25

#: Session-tier payload (24 bytes = three 8-byte frames).  The plain
#: tier keeps the baseline scenario's 2-byte payload so its cells stay
#: bit-identical to the committed goldens; sessions need several
#: frames so the protocol machinery (FEC rate, retransmission,
#: recalibration amortisation) is actually exercised.
SESSION_PAYLOAD_HEX: str = "49434841" * 6

#: Residual BER below which a defender has visibly changed nothing.
OPEN_BER: float = 0.05


@dataclass(frozen=True)
class MatrixCell:
    """One scored (attacker, defender) cell of the matrix.

    ``residual_ber`` is the error rate the attacker could not engineer
    away (post-FEC/ARQ for session tiers, raw for ``plain``);
    ``residual_capacity_bps`` is the correct-payload-bit rate actually
    achieved.  ``document_digest`` is only set for ``plain`` cells —
    it is the content digest of the underlying scenario run document,
    which for the ``none`` defender must equal the committed
    ``baseline_*`` golden digests bit for bit.
    """

    attacker: str
    defender: str
    protocol: str
    channel: str
    scenario: str
    feasible: bool
    residual_ber: float
    residual_capacity_bps: float
    elapsed_ns: float
    attempts: int
    recalibrations: int
    degraded: bool
    document_digest: str = ""

    @property
    def verdict(self) -> str:
        """``defeated`` / ``open`` / ``degraded`` (see module docs)."""
        if (not self.feasible or self.residual_ber >= DEFEAT_BER
                or self.residual_capacity_bps <= 0.0):
            return "defeated"
        if self.residual_ber < OPEN_BER:
            return "open"
        return "degraded"

    def to_mapping(self) -> Dict[str, Any]:
        """Plain-dict form (verdict included) for JSON/golden export."""
        mapping = dataclasses.asdict(self)
        mapping["verdict"] = self.verdict
        return mapping


def cell_spec(channel: str, defender: Defender) -> ScenarioSpec:
    """The scenario a cell runs: channel baseline + defender knobs.

    The ``none`` defender returns the registered ``baseline_*`` spec
    object itself, so undefended cells stay bit-identical to the
    committed scenario goldens.  A literature defender on its native
    cross-core channel returns its registered ``matrix_*`` scenario
    for the same reason; every other combination grafts the defender's
    options/faults/overrides onto the channel baseline under a derived
    ``matrix_<defender>_<channel>`` name.
    """
    base = get_spec(f"baseline_{channel}")
    if defender.name == "none":
        return base
    if defender.scenario and channel == "cores":
        return get_spec(defender.scenario)
    return dataclasses.replace(
        base,
        name=f"matrix_{defender.name}_{channel}",
        description=(f"The {channel} channel against the "
                     f"{defender.name} defender (derived matrix cell)."),
        options=defender.options,
        faults=defender.faults,
        overrides=defender.overrides,
    )


def _defeated_cell(attacker_name: str, defender_name: str,
                   spec: ScenarioSpec) -> MatrixCell:
    """The cell recorded when the attacker cannot establish a channel."""
    attacker = get_attacker(attacker_name)
    return MatrixCell(
        attacker=attacker.name, defender=defender_name,
        protocol=attacker.protocol, channel=attacker.channel,
        scenario=spec.name, feasible=False, residual_ber=1.0,
        residual_capacity_bps=0.0, elapsed_ns=0.0, attempts=0,
        recalibrations=0, degraded=False)


def _run_plain_cell(attacker_name: str, defender_name: str,
                    spec: ScenarioSpec) -> MatrixCell:
    """Score a one-shot (no-session) cell via the scenario runner."""
    attacker = get_attacker(attacker_name)
    run = run_scenario(spec)
    tenant = run.tenants[0]
    if not tenant.feasible:
        return _defeated_cell(attacker_name, defender_name, spec)
    return MatrixCell(
        attacker=attacker.name, defender=defender_name,
        protocol=attacker.protocol, channel=attacker.channel,
        scenario=spec.name, feasible=True,
        residual_ber=tenant.ber,
        residual_capacity_bps=(0.0 if tenant.ber >= DEFEAT_BER
                               else tenant.goodput_bps),
        elapsed_ns=run.elapsed_ns, attempts=1, recalibrations=0,
        degraded=False,
        document_digest=content_digest(run.document()))


def _run_session_cell(attacker_name: str, defender_name: str,
                      spec: ScenarioSpec) -> MatrixCell:
    """Score an ARQ/adaptive cell via a :class:`CovertSession`."""
    attacker = get_attacker(attacker_name)
    spec = dataclasses.replace(spec, payload_hex=SESSION_PAYLOAD_HEX)
    system = build_system(spec)
    channel = make_channel(system, spec.tenants[0], spec)
    session = CovertSession(channel, session_config(attacker.protocol))
    start_ns = system.now
    try:
        report = session.send(spec.payload)
    except (CalibrationError, ProtocolError):
        return _defeated_cell(attacker_name, defender_name, spec)
    elapsed_ns = system.now - start_ns
    payload_bits = 8 * len(spec.payload)
    residual = report.residual_ber
    # Past the decode wall the delivered bits carry no usable payload;
    # report zero residual capacity instead of a garbage-bit rate.
    capacity = (0.0 if residual >= DEFEAT_BER else
                bits_per_second(payload_bits * (1.0 - residual),
                                elapsed_ns))
    return MatrixCell(
        attacker=attacker.name, defender=defender_name,
        protocol=attacker.protocol, channel=attacker.channel,
        scenario=spec.name, feasible=True, residual_ber=residual,
        residual_capacity_bps=capacity, elapsed_ns=elapsed_ns,
        attempts=report.total_attempts,
        recalibrations=report.recalibrations,
        degraded=report.degraded)


def run_cell(attacker: str = "", defender: str = "") -> Dict[str, Any]:
    """Run one (attacker, defender) cell and return its mapping.

    The module-level, keyword-driven sweep task: picklable for
    :meth:`repro.runner.SweepRunner.map`, deterministic for the golden
    gates.  Raises ConfigError on unknown names or blank arguments.
    """
    if not attacker or not defender:
        raise ConfigError("run_cell needs attacker= and defender= names")
    spec = cell_spec(get_attacker(attacker).channel,
                     get_defender(defender))
    if get_attacker(attacker).protocol == "plain":
        cell = _run_plain_cell(attacker, defender, spec)
    else:
        cell = _run_session_cell(attacker, defender, spec)
    return cell.to_mapping()


def cell_from_mapping(mapping: Dict[str, Any]) -> MatrixCell:
    """Rebuild a :class:`MatrixCell` from :meth:`MatrixCell.to_mapping`."""
    fields = {f.name for f in dataclasses.fields(MatrixCell)}
    return MatrixCell(**{k: v for k, v in mapping.items() if k in fields})
