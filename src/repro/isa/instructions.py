"""Instruction classes and a table of concrete x86 vector instructions.

The central abstraction is :class:`IClass`, the seven computational
intensity classes of the paper (Section 4, Figure 3).  Each class carries
the microarchitectural parameters the rest of the simulator needs:

* ``cdyn_nf`` — effective switched capacitance (nF) of one core running a
  tight loop of this class at full rate.  This drives current draw
  (``I = Cdyn * V * f``) and, through the load-line, the voltage guardband
  (Equation 1 of the paper).
* ``ipc`` — baseline instructions per cycle of the loop when unthrottled.
* ``width_bits`` / ``heavy`` — vector width and whether the instruction
  needs the FPU or a multiplier (the paper's Heavy/Light split).

Calibration: Cdyn values are chosen so the simulated electrical behaviour
matches the paper's measurements, e.g. one core switching from scalar to
AVX2-heavy code at 2 GHz raises the shared rail by ~8-9 mV across a
1.8 mOhm load-line (Figure 6), and a two-core mobile part running
AVX2-heavy at 3.1 GHz exceeds its 29 A Icc_max (Figure 7).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigError


#: The per-class parameters :class:`IClass` members carry.  They are set
#: once, when the enum is created, and are read-only afterwards: a write
#: would change the model for every later user of the class.
_PARAMS = ("width_bits", "heavy", "cdyn_nf", "ipc", "uses_avx256_unit",
           "uses_avx512_unit", "is_phi")


@enum.unique
class IClass(enum.IntEnum):
    """Computational-intensity classes, ordered by increasing intensity.

    The integer values order the classes by the supply-voltage guardband
    they require: comparing two classes compares their power appetite.

    Every member carries read-only parameter attributes:

    * ``width_bits`` — vector width in bits (64 for scalar);
    * ``heavy`` — True when the class needs the FPU or a multiplier;
    * ``cdyn_nf`` — effective switched capacitance (nF) of a full-rate loop;
    * ``ipc`` — baseline unthrottled instructions per cycle of a tight loop;
    * ``uses_avx256_unit`` / ``uses_avx512_unit`` — True when the class
      exercises the 256-bit / 512-bit AVX datapath;
    * ``is_phi`` — True for power-hungry instruction (PHI) classes.  The
      paper treats every class above plain 128-bit light code as a PHI:
      these are the classes whose execution triggers a voltage guardband
      adjustment and hence throttling.
    """

    width_bits: int
    heavy: bool
    cdyn_nf: float
    ipc: float
    uses_avx256_unit: bool
    uses_avx512_unit: bool
    is_phi: bool

    # value, width_bits, heavy, cdyn_nf, ipc.  Cdyn calibration (see the
    # module docstring): the scalar baseline of 3.0 nF puts a 2-core
    # mobile part at ~10 A of background current; the heavy-512 value of
    # 9.0 nF makes a single AVX-512 core draw ~22 A at 3.1 GHz / 0.8 V.
    SCALAR_64 = (0, 64, False, 3.0, 2.0)
    LIGHT_128 = (1, 128, False, 3.6, 2.0)
    HEAVY_128 = (2, 128, True, 4.2, 1.0)
    LIGHT_256 = (3, 256, False, 5.0, 1.0)
    HEAVY_256 = (4, 256, True, 6.0, 1.0)
    LIGHT_512 = (5, 512, False, 7.4, 1.0)
    HEAVY_512 = (6, 512, True, 9.0, 1.0)

    def __new__(cls, value: int, width_bits: int, heavy: bool,
                cdyn_nf: float, ipc: float) -> "IClass":
        member = int.__new__(cls, value)
        member._value_ = value
        # Every class from HEAVY_128 (value 2) up is a PHI.
        params = (width_bits, heavy, cdyn_nf, ipc, width_bits >= 256,
                  width_bits >= 512, value >= 2)
        for name, param in zip(_PARAMS, params):
            object.__setattr__(member, name, param)
        return member

    def __setattr__(self, name: str, value: object) -> None:
        if name in _PARAMS:
            raise AttributeError(f"IClass.{name} is read-only")
        super().__setattr__(name, value)

    def __delattr__(self, name: str) -> None:
        if name in _PARAMS:
            raise AttributeError(f"IClass.{name} is read-only")
        super().__delattr__(name)

    @property
    def label(self) -> str:
        """Paper-style label, e.g. ``256b_Heavy``."""
        if self == IClass.SCALAR_64:
            return "64b"
        kind = "Heavy" if self.heavy else "Light"
        return f"{self.width_bits}b_{kind}"

    @classmethod
    def from_label(cls, label: str) -> "IClass":
        """Look a class up by its paper-style label (case-insensitive)."""
        wanted = label.strip().lower()
        for iclass in cls:
            if iclass.label.lower() == wanted:
                return iclass
        raise ConfigError(f"unknown instruction class label: {label!r}")


#: Classes the paper treats as power-hungry instructions.
PHI_CLASSES: Tuple[IClass, ...] = tuple(c for c in IClass if c.is_phi)

# Parameter maps keyed by class.  A dict lookup is still a little
# cheaper than a member attribute read, so the rate recompute and the
# Cdyn and label traces use these.  They hold the very objects the
# member attributes do, so either way reads the same value.
CDYN_NF: Dict[IClass, float] = {c: c.cdyn_nf for c in IClass}
IPC: Dict[IClass, float] = {c: c.ipc for c in IClass}
LABEL: Dict[IClass, str] = {c: c.label for c in IClass}


@dataclass(frozen=True)
class Instruction:
    """A concrete instruction mapped onto an intensity class.

    Parameters
    ----------
    mnemonic:
        Assembly mnemonic, e.g. ``VMULPD``.
    iclass:
        The computational-intensity class the instruction belongs to.
    uops:
        Fused-domain micro-ops the instruction decodes into.
    description:
        One-line human description.
    """

    mnemonic: str
    iclass: IClass
    uops: int
    description: str

    def __post_init__(self) -> None:
        if self.uops < 1:
            raise ConfigError(f"{self.mnemonic}: uops must be >= 1, got {self.uops}")


def _table() -> Dict[str, Instruction]:
    """Every modelled instruction, keyed by mnemonic."""
    rows = [
        # mnemonic, class, uops, description
        ("MOV64", IClass.SCALAR_64, 1, "64-bit register move"),
        ("ADD64", IClass.SCALAR_64, 1, "64-bit integer add"),
        ("XOR64", IClass.SCALAR_64, 1, "64-bit integer xor"),
        ("IMUL64", IClass.SCALAR_64, 1, "64-bit integer multiply (scalar port)"),
        ("LEA64", IClass.SCALAR_64, 1, "64-bit address computation"),
        ("VMOVDQA128", IClass.LIGHT_128, 1, "128-bit aligned vector move"),
        ("VPADDD128", IClass.LIGHT_128, 1, "128-bit packed 32-bit integer add"),
        ("VPOR128", IClass.LIGHT_128, 1, "128-bit vector bitwise or"),
        ("VPSHUFB128", IClass.LIGHT_128, 1, "128-bit byte shuffle"),
        ("VPBLENDW128", IClass.LIGHT_128, 1, "128-bit word blend"),
        ("VADDPD128", IClass.HEAVY_128, 1, "128-bit packed double add (FPU)"),
        ("VSUBPS128", IClass.HEAVY_128, 1, "128-bit packed single subtract (FPU)"),
        ("VMULPD128", IClass.HEAVY_128, 1, "128-bit packed double multiply"),
        ("VPMULLD128", IClass.HEAVY_128, 2, "128-bit packed 32-bit integer multiply"),
        ("VMOVDQA256", IClass.LIGHT_256, 1, "256-bit aligned vector move"),
        ("VPADDD256", IClass.LIGHT_256, 1, "256-bit packed 32-bit integer add"),
        ("VORPD256", IClass.LIGHT_256, 1, "256-bit vector bitwise or"),
        ("VPERMILPS256", IClass.LIGHT_256, 1, "256-bit in-lane permute"),
        ("VADDPD256", IClass.HEAVY_256, 1, "256-bit packed double add (FPU)"),
        ("VSUBPS256", IClass.HEAVY_256, 1, "256-bit packed single subtract (FPU)"),
        ("VMULPD256", IClass.HEAVY_256, 1, "256-bit packed double multiply"),
        ("VFMADD231PD256", IClass.HEAVY_256, 1, "256-bit fused multiply-add"),
        ("VMOVDQA512", IClass.LIGHT_512, 1, "512-bit aligned vector move"),
        ("VPADDD512", IClass.LIGHT_512, 1, "512-bit packed 32-bit integer add"),
        ("VPORQ512", IClass.LIGHT_512, 1, "512-bit vector bitwise or"),
        ("VADDPD512", IClass.HEAVY_512, 1, "512-bit packed double add (FPU)"),
        ("VMULPD512", IClass.HEAVY_512, 1, "512-bit packed double multiply"),
        ("VFMADD231PD512", IClass.HEAVY_512, 1, "512-bit fused multiply-add"),
    ]
    return {
        mnemonic: Instruction(mnemonic, iclass, uops, description)
        for mnemonic, iclass, uops, description in rows
    }


#: Table of concrete instructions keyed by mnemonic.
INSTRUCTIONS: Dict[str, Instruction] = _table()


def instruction(mnemonic: str) -> Instruction:
    """Look up an :class:`Instruction` by mnemonic (case-insensitive)."""
    found = INSTRUCTIONS.get(mnemonic.upper())
    if found is None:
        raise ConfigError(f"unknown instruction mnemonic: {mnemonic!r}")
    return found


def instructions_in_class(iclass: IClass) -> List[Instruction]:
    """All concrete instructions belonging to ``iclass``."""
    return [inst for inst in INSTRUCTIONS.values() if inst.iclass == iclass]
