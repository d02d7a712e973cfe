"""Def/use sets and classification predicates of Instruction."""

import pytest

from repro.isa import opcodes, registers as R
from repro.isa.instruction import Instruction, nop
from repro.isa.opcodes import Format, InstClass


def test_load_def_use():
    inst = Instruction(opcodes.LDQ, ra=R.T0, rb=R.SP, disp=8)
    assert inst.defs() == {R.T0}
    assert inst.uses() == {R.SP}
    assert inst.is_load() and inst.is_memory_ref() and not inst.is_store()


def test_store_def_use():
    inst = Instruction(opcodes.STQ, ra=R.T0, rb=R.SP, disp=8)
    assert inst.defs() == frozenset()
    assert inst.uses() == {R.T0, R.SP}
    assert inst.is_store() and inst.is_memory_ref()


def test_lda_def_use():
    inst = Instruction(opcodes.LDA, ra=R.A0, rb=R.ZERO, disp=5)
    assert inst.defs() == {R.A0}
    assert inst.uses() == frozenset()        # zero never appears


def test_operate_def_use():
    inst = Instruction(opcodes.ADDQ, ra=R.T0, rb=R.T1, rc=R.T2)
    assert inst.defs() == {R.T2}
    assert inst.uses() == {R.T0, R.T1}
    lit = Instruction(opcodes.ADDQ, ra=R.T0, lit=4, is_lit=True, rc=R.T2)
    assert lit.uses() == {R.T0}


def test_cmov_uses_destination():
    inst = Instruction(opcodes.CMOVEQ, ra=R.T0, rb=R.T1, rc=R.T2)
    assert R.T2 in inst.uses()
    assert inst.defs() == {R.T2}


def test_cond_branch_def_use():
    inst = Instruction(opcodes.BNE, ra=R.T3, disp=4)
    assert inst.is_cond_branch() and inst.ends_block()
    assert inst.uses() == {R.T3}
    assert inst.defs() == frozenset()        # link register is zero


def test_bsr_defines_link_register():
    inst = Instruction(opcodes.BSR, ra=R.RA, disp=100)
    assert inst.is_call() and inst.ends_block()
    assert inst.defs() == {R.RA}


def test_jsr_def_use():
    inst = Instruction(opcodes.JSR, ra=R.RA, rb=R.PV)
    assert inst.is_call()
    assert inst.defs() == {R.RA}
    assert inst.uses() == {R.PV}


def test_ret_def_use():
    inst = Instruction(opcodes.RET, ra=R.ZERO, rb=R.RA)
    assert inst.is_ret() and inst.ends_block()
    assert inst.uses() == {R.RA}
    assert inst.defs() == frozenset()


def test_syscall_conservative_sets():
    inst = Instruction(opcodes.SYS)
    assert inst.is_syscall() and inst.ends_block()
    assert R.V0 in inst.defs()
    assert {R.V0, R.A0, R.A5} <= inst.uses()


def test_writes_to_zero_are_discarded():
    inst = Instruction(opcodes.ADDQ, ra=R.T0, rb=R.T1, rc=R.ZERO)
    assert inst.defs() == frozenset()


def test_nop_has_no_effects():
    inst = nop()
    assert inst.defs() == frozenset()
    assert inst.uses() == frozenset()
    assert not inst.ends_block()


def test_zero_not_in_uses_even_as_source():
    inst = Instruction(opcodes.ADDQ, ra=R.ZERO, rb=R.ZERO, rc=R.T0)
    assert inst.uses() == frozenset()


def test_block_enders():
    assert Instruction(opcodes.BR).ends_block()
    assert Instruction(opcodes.JMP, ra=R.ZERO, rb=R.T0).ends_block()
    assert Instruction(opcodes.HALT).ends_block()
    assert not Instruction(opcodes.LDQ, ra=R.T0, rb=R.SP).ends_block()
    assert not Instruction(opcodes.SYS).is_control_transfer()
    assert Instruction(opcodes.BR).is_control_transfer()


def test_str_rendering():
    assert "ldq t0, 8(sp)" in str(Instruction(opcodes.LDQ, ra=R.T0, rb=R.SP,
                                              disp=8))
    assert "addq t0, #4, t1" in str(
        Instruction(opcodes.ADDQ, ra=R.T0, lit=4, is_lit=True, rc=R.T1))


def test_copy_is_independent():
    inst = Instruction(opcodes.LDQ, ra=R.T0, rb=R.SP, disp=8)
    same = inst.copy()
    assert same == inst and same is not inst
    moved = inst.copy(rb=R.GP, disp=16)
    moved.ra = R.T1
    assert (moved.ra, moved.rb, moved.disp) == (R.T1, R.GP, 16)
    assert (inst.ra, inst.rb, inst.disp) == (R.T0, R.SP, 8)


def test_copy_rejects_unknown_field():
    with pytest.raises(TypeError):
        Instruction(opcodes.LDQ).copy(base=R.SP)


# ---- the effect table against the per-format derivation it replaced -----

def _reference_defs(inst):
    op = inst.op
    out = set()
    if op.format is Format.MEMORY:
        if op.inst_class in (InstClass.LOAD, InstClass.LOAD_ADDRESS):
            out.add(inst.ra)
    elif op.format is Format.BRANCH:
        if op.inst_class in (InstClass.UNCOND_BRANCH, InstClass.CALL):
            out.add(inst.ra)
    elif op.format is Format.JUMP:
        if op.inst_class in (InstClass.CALL, InstClass.JUMP):
            out.add(inst.ra)
    elif op.format is Format.OPERATE:
        out.add(inst.rc)
    elif op.format is Format.SYSTEM:
        if op.inst_class is InstClass.SYSCALL:
            out.add(R.V0)
    out.discard(R.ZERO)
    return frozenset(out)


def _reference_uses(inst):
    op = inst.op
    out = set()
    if op.format is Format.MEMORY:
        out.add(inst.rb)
        if op.inst_class is InstClass.STORE:
            out.add(inst.ra)
    elif op.format is Format.BRANCH:
        if op.inst_class is InstClass.COND_BRANCH:
            out.add(inst.ra)
    elif op.format is Format.JUMP:
        out.add(inst.rb)
    elif op.format is Format.OPERATE:
        out.add(inst.ra)
        if not inst.is_lit:
            out.add(inst.rb)
        if op.mnemonic in ("cmoveq", "cmovne"):
            out.add(inst.rc)
    elif op.format is Format.SYSTEM:
        if op.inst_class is InstClass.SYSCALL:
            out.update({R.V0, *R.ARG_REGS})
    out.discard(R.ZERO)
    return frozenset(out)


def _reference_ends_block(inst):
    return inst.op.inst_class in (
        InstClass.COND_BRANCH, InstClass.UNCOND_BRANCH, InstClass.CALL,
        InstClass.JUMP, InstClass.RET, InstClass.SYSCALL, InstClass.HALT)


def test_effect_table_matches_reference():
    """For every opcode, each of ra, rb and rc swept over all 32
    registers, with and without a literal, while the other two fields
    take zero, a fixed register, or the swept register itself."""
    fields = ("ra", "rb", "rc")
    for op in opcodes.ALL_OPS:
        assert Instruction(op).ends_block() \
            == _reference_ends_block(Instruction(op)), op.mnemonic
        for is_lit in (False, True):
            for swept in fields:
                others = [f for f in fields if f != swept]
                for reg in range(R.NUM_REGS):
                    for x in (R.ZERO, R.T5, reg):
                        for y in (R.ZERO, R.T6, reg):
                            inst = Instruction(
                                op, lit=7, is_lit=is_lit,
                                **{swept: reg, others[0]: x, others[1]: y})
                            assert inst.defs() == _reference_defs(inst), \
                                inst
                            assert inst.uses() == _reference_uses(inst), \
                                inst
