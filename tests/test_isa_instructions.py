"""Instruction classes and the concrete instruction table."""

import pytest

from repro.errors import ConfigError
from repro.isa import (
    IClass,
    INSTRUCTIONS,
    Instruction,
    PHI_CLASSES,
    instruction,
    instructions_in_class,
)
from repro.isa.instructions import CDYN_NF, IPC

# The class table: width_bits, heavy, cdyn_nf, ipc, uses_avx256_unit,
# uses_avx512_unit, is_phi.
_TABLE = {
    IClass.SCALAR_64: (64, False, 3.0, 2.0, False, False, False),
    IClass.LIGHT_128: (128, False, 3.6, 2.0, False, False, False),
    IClass.HEAVY_128: (128, True, 4.2, 1.0, False, False, True),
    IClass.LIGHT_256: (256, False, 5.0, 1.0, True, False, True),
    IClass.HEAVY_256: (256, True, 6.0, 1.0, True, False, True),
    IClass.LIGHT_512: (512, False, 7.4, 1.0, True, True, True),
    IClass.HEAVY_512: (512, True, 9.0, 1.0, True, True, True),
}
_PARAMS = ("width_bits", "heavy", "cdyn_nf", "ipc", "uses_avx256_unit",
           "uses_avx512_unit", "is_phi")


class TestIClassOrdering:
    def test_seven_classes(self):
        assert len(list(IClass)) == 7

    def test_enum_order_matches_intensity(self):
        ordered = sorted(IClass)
        assert ordered[0] == IClass.SCALAR_64
        assert ordered[-1] == IClass.HEAVY_512

    def test_cdyn_strictly_increases_with_intensity(self):
        classes = sorted(IClass)
        cdyns = [c.cdyn_nf for c in classes]
        assert all(b > a for a, b in zip(cdyns, cdyns[1:]))

    def test_scalar_has_highest_ipc(self):
        assert IClass.SCALAR_64.ipc >= max(c.ipc for c in IClass)

    def test_heavy_512_is_most_intense(self):
        assert max(IClass, key=lambda c: c.cdyn_nf) == IClass.HEAVY_512


class TestIClassProperties:
    def test_scalar_width(self):
        assert IClass.SCALAR_64.width_bits == 64

    def test_heavy_flags(self):
        assert IClass.HEAVY_256.heavy
        assert not IClass.LIGHT_256.heavy

    def test_avx256_unit_usage(self):
        assert IClass.LIGHT_256.uses_avx256_unit
        assert IClass.HEAVY_512.uses_avx256_unit
        assert not IClass.HEAVY_128.uses_avx256_unit

    def test_avx512_unit_usage(self):
        assert IClass.HEAVY_512.uses_avx512_unit
        assert not IClass.HEAVY_256.uses_avx512_unit

    def test_phi_split_matches_paper(self):
        # The paper's PHIs are the classes that trigger guardband bumps.
        assert IClass.HEAVY_128.is_phi
        assert not IClass.SCALAR_64.is_phi
        assert not IClass.LIGHT_128.is_phi

    def test_phi_classes_tuple(self):
        assert set(PHI_CLASSES) == {c for c in IClass if c.is_phi}
        assert len(PHI_CLASSES) == 5


class TestIClassTable:
    @pytest.mark.parametrize("iclass", list(IClass), ids=lambda c: c.name)
    def test_parameters_match_the_table(self, iclass):
        assert tuple(getattr(iclass, name) for name in _PARAMS) == (
            _TABLE[iclass])

    @pytest.mark.parametrize("iclass", list(IClass), ids=lambda c: c.name)
    def test_flat_maps_agree_with_attributes(self, iclass):
        assert CDYN_NF[iclass] == iclass.cdyn_nf
        assert IPC[iclass] == iclass.ipc

    @pytest.mark.parametrize("name", _PARAMS)
    def test_parameters_are_read_only(self, name):
        for iclass in IClass:
            before = getattr(iclass, name)
            with pytest.raises(AttributeError):
                setattr(iclass, name, before)
            with pytest.raises(AttributeError):
                delattr(iclass, name)
            assert getattr(iclass, name) == before

    def test_value_lookup_returns_the_member(self):
        for iclass in IClass:
            assert IClass(int(iclass)) is iclass
            assert IClass[iclass.name] is iclass


class TestLabels:
    def test_scalar_label(self):
        assert IClass.SCALAR_64.label == "64b"

    def test_heavy_label(self):
        assert IClass.HEAVY_256.label == "256b_Heavy"

    def test_light_label(self):
        assert IClass.LIGHT_512.label == "512b_Light"


class TestInstructionTable:
    def test_lookup_known_mnemonic(self):
        inst = instruction("VMULPD256")
        assert inst.iclass == IClass.HEAVY_256

    def test_lookup_case_insensitive(self):
        assert instruction("vmulpd512").iclass == IClass.HEAVY_512

    def test_lookup_unknown_raises(self):
        with pytest.raises(ConfigError):
            instruction("NOPE")

    def test_every_class_has_instructions(self):
        for iclass in IClass:
            assert instructions_in_class(iclass), f"{iclass.label} has no entries"

    def test_heavy_instructions_are_in_heavy_classes(self):
        # Multiplies and FP adds (the paper's 'Heavy' definition).
        for mnemonic in ("VMULPD128", "VADDPD256", "VFMADD231PD512"):
            assert INSTRUCTIONS[mnemonic].iclass.heavy

    def test_light_instructions_are_in_light_classes(self):
        for mnemonic in ("VPOR128", "VORPD256", "VPORQ512"):
            assert not INSTRUCTIONS[mnemonic].iclass.heavy

    def test_uops_positive(self):
        assert all(inst.uops >= 1 for inst in INSTRUCTIONS.values())

    def test_invalid_uops_rejected(self):
        with pytest.raises(ConfigError):
            Instruction("BAD", IClass.SCALAR_64, 0, "broken")

    def test_vorpd256_is_the_papers_light_example(self):
        # Paper: VORPD-256 throttles less than VMULPD-512.
        vorpd = instruction("VORPD256")
        vmulpd = instruction("VMULPD512")
        assert vorpd.iclass.cdyn_nf < vmulpd.iclass.cdyn_nf
