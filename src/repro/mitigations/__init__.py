"""The paper's mitigations (Section 7, Table 1).

Three defences, each a :class:`~repro.soc.system.SystemOptions` recipe
named once in the defender registry
(:mod:`~repro.mitigations.matrix.defenders`), plus evaluation tooling:

* **Per-core voltage regulators** (LDO/IVR) — eliminates the cross-core
  serialisation (IccCoresCovert) and, with fast LDO ramps, shrinks the
  remaining throttling periods below usability.  11-13 % core area.
* **Improved core throttling** — gate only the PHI thread's uops;
  IccSMTcovert dies, the same-thread and cross-core channels survive.
* **Secure mode** — pin the worst-case guardband; no transitions, no
  throttling, all three channels die, at a 4-11 % power cost.

The :mod:`~repro.mitigations.matrix` subpackage widens this into a
standing attacker-vs-defender evaluation matrix: the three paper
recipes plus three prevention-literature defenders (noise injection,
turbo-license limiting, temporal-partitioning state flush), crossed
with three attacker protocol tiers per channel family, with residual
BER/capacity verdicts and per-defender runtime/power cost.  Run it
with ``python -m repro --mitigation-matrix``.
"""

from repro.mitigations.matrix import (
    ATTACKERS,
    Attacker,
    DEFENDERS,
    Defender,
    DefenderCost,
    MatrixCell,
    MitigationMatrixReport,
    run_matrix,
    smoke_matrix,
)

from repro.mitigations.detector import DetectionReport, ThrottleAnomalyDetector
from repro.mitigations.report import (
    MitigationOutcome,
    MitigationReport,
    TABLE1_DEFENDERS,
    evaluate_mitigation,
    evaluate_all,
)

__all__ = [
    "ATTACKERS",
    "Attacker",
    "DEFENDERS",
    "Defender",
    "DefenderCost",
    "DetectionReport",
    "MatrixCell",
    "MitigationMatrixReport",
    "ThrottleAnomalyDetector",
    "run_matrix",
    "smoke_matrix",
    "MitigationOutcome",
    "MitigationReport",
    "TABLE1_DEFENDERS",
    "evaluate_mitigation",
    "evaluate_all",
]
