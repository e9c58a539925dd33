"""The matrix report: cells + costs, queryable and exportable.

:class:`MitigationMatrixReport` is what
:func:`~repro.mitigations.matrix.sweep.run_matrix` returns: every
scored :class:`~repro.mitigations.matrix.cells.MatrixCell`, the
per-defender :class:`~repro.mitigations.matrix.cost.DefenderCost`
measurements, and the attacker/defender axes in registry order.  It
exports three ways —

* ``document()`` / ``to_json_text()`` — the canonical mapping the
  golden gates digest and the CLI's ``--matrix-json`` writes;
* ``to_csv_text()`` — one row per cell with the defender's overheads
  joined in, for spreadsheets and the CI artifact;
* ``markdown_table()`` — the attacker x defender verdict grid used by
  docs/MITIGATIONS.md and EXPERIMENTS.md.

It also answers the two questions the acceptance gates ask:
:meth:`channels_defeated` (which channel families a defender kills
outright, across every protocol tier) and
:meth:`adaptive_shortfalls` (cells where the adaptive session fails
to strictly out-carry plain ARQ).
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Set, Tuple

from repro.errors import ConfigError
from repro.mitigations.matrix.cells import MatrixCell
from repro.mitigations.matrix.cost import DefenderCost
from repro.runner.cache import canonicalize

#: Columns of the CSV export, in order.
_CSV_COLUMNS: Tuple[str, ...] = (
    "attacker", "defender", "protocol", "channel", "scenario", "verdict",
    "feasible", "residual_ber", "residual_capacity_bps", "elapsed_ns",
    "attempts", "recalibrations", "degraded", "document_digest",
    "defender_runtime_overhead", "defender_power_overhead",
)


@dataclass(frozen=True)
class MitigationMatrixReport:
    """Every scored cell plus defender costs, with the axes in order."""

    cells: Tuple[MatrixCell, ...]
    costs: Tuple[DefenderCost, ...]
    attackers: Tuple[str, ...]
    defenders: Tuple[str, ...]

    def cell(self, attacker: str, defender: str) -> MatrixCell:
        """The scored cell at (attacker, defender); ConfigError if absent."""
        for cell in self.cells:
            if cell.attacker == attacker and cell.defender == defender:
                return cell
        raise ConfigError(
            f"no cell for attacker {attacker!r} x defender {defender!r} "
            f"in this report")

    def cost(self, defender: str) -> DefenderCost:
        """The cost record for ``defender``; ConfigError if absent."""
        for cost in self.costs:
            if cost.defender == defender:
                return cost
        raise ConfigError(f"no cost record for defender {defender!r}")

    def channels_defeated(self, defender: str) -> Set[str]:
        """Channel families ``defender`` kills across *every* tier.

        A channel counts as defeated only when every attacker of that
        family present in the report is defeated — one surviving
        protocol tier keeps the channel alive.
        """
        by_channel: Dict[str, List[MatrixCell]] = {}
        for cell in self.cells:
            if cell.defender == defender:
                by_channel.setdefault(cell.channel, []).append(cell)
        return {channel for channel, group in by_channel.items()
                if all(c.verdict == "defeated" for c in group)}

    def adaptive_shortfalls(self) -> List[str]:
        """Cells where the adaptive tier fails to out-carry plain ARQ.

        For every (defender, channel) where the ARQ cell is *not*
        defeated, the adaptive cell must also survive and carry
        strictly more residual capacity.  Returns human-readable
        violation strings — empty means the adaptive attacker dominates
        everywhere it should.
        """
        shortfalls: List[str] = []
        for defender in self.defenders:
            for channel in ("thread", "smt", "cores"):
                try:
                    arq = self.cell(f"arq_{channel}", defender)
                    adaptive = self.cell(f"adaptive_{channel}", defender)
                except ConfigError:
                    continue
                if arq.verdict == "defeated":
                    continue
                if adaptive.verdict == "defeated":
                    shortfalls.append(
                        f"{defender}/{channel}: adaptive defeated while "
                        f"arq survives")
                elif (adaptive.residual_capacity_bps
                        <= arq.residual_capacity_bps):
                    shortfalls.append(
                        f"{defender}/{channel}: adaptive carries "
                        f"{adaptive.residual_capacity_bps:.1f} b/s <= arq "
                        f"{arq.residual_capacity_bps:.1f} b/s")
        return shortfalls

    def document(self) -> Dict[str, Any]:
        """The canonical mapping form (what the golden gates digest)."""
        return {
            "attackers": list(self.attackers),
            "defenders": list(self.defenders),
            "cells": [cell.to_mapping() for cell in self.cells],
            "costs": [cost.to_mapping() for cost in self.costs],
        }

    def to_json_text(self) -> str:
        """The document as canonical (sorted-key, rounded) JSON text."""
        return json.dumps(canonicalize(self.document()), indent=2,
                          sort_keys=True) + "\n"

    def to_csv_text(self) -> str:
        """One CSV row per cell, defender overheads joined in."""
        overheads = {cost.defender: cost for cost in self.costs}
        buffer = io.StringIO()
        buffer.write(",".join(_CSV_COLUMNS) + "\n")
        for cell in self.cells:
            mapping = cell.to_mapping()
            cost = overheads.get(cell.defender)
            mapping["defender_runtime_overhead"] = (
                f"{cost.runtime_overhead:.6f}" if cost else "")
            mapping["defender_power_overhead"] = (
                f"{cost.power_overhead:.6f}" if cost else "")
            buffer.write(",".join(str(mapping[c]) for c in _CSV_COLUMNS)
                         + "\n")
        return buffer.getvalue()

    def markdown_table(self) -> str:
        """The attacker x defender verdict grid as a markdown table.

        Each cell shows ``verdict (capacity b/s)``; defenders head the
        columns with their runtime overhead in the header row.
        """
        overheads = {cost.defender: cost for cost in self.costs}
        headers = ["attacker"]
        for defender in self.defenders:
            cost = overheads.get(defender)
            suffix = (f" ({cost.runtime_overhead * 100.0:+.1f}% rt)"
                      if cost else "")
            headers.append(f"{defender}{suffix}")
        lines = ["| " + " | ".join(headers) + " |",
                 "|" + "---|" * len(headers)]
        for attacker in self.attackers:
            row = [f"`{attacker}`"]
            for defender in self.defenders:
                try:
                    cell = self.cell(attacker, defender)
                except ConfigError:
                    row.append("—")
                    continue
                row.append(f"{cell.verdict} "
                           f"({cell.residual_capacity_bps:.0f} b/s)")
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"

    def write_json(self, path: str) -> None:
        """Write :meth:`to_json_text` to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json_text())

    def write_csv(self, path: str) -> None:
        """Write :meth:`to_csv_text` to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_csv_text())
