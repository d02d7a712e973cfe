"""Superblock fusion must be architecturally invisible.

Every test here runs the same program under the fused dispatch and the
plain per-instruction loop and insists on identical machine state —
registers, stats, memory, faults, and fault pcs.  The tier-up budgets
are lowered (the ``early_tiers`` fixture: a head fuses on its second
entry) and loops run enough iterations that the generated superblock
executors are actually installed, so the compiled templates (not just
the counter's cold walk) are what gets compared.
"""

import pytest

from repro.isa.asm import assemble
from repro.machine import MachineError
from repro.machine.loader import Machine
from repro.workloads import build_workload

pytestmark = pytest.mark.usefixtures("early_tiers")


def build(body: str):
    src = f"""
        .text
        .globl __start
__start:
        ldgp
{body}
        mov  t9, a0
        li   v0, 1
        sys
"""
    from repro.objfile.linker import link
    return link([assemble(src, "t.s")])


def machine_state(machine: Machine):
    """Everything architecturally observable after a run."""
    pages = {no: bytes(page)
             for no, page in machine.memory._pages.items() if any(page)}
    return (list(machine.cpu.regs), list(machine.cpu.stats), pages)


def run_both(body: str, max_insts: int = 2_000_000_000,
             compiled: bool = True):
    """(fused, unfused) pairs of (RunResult, state); with ``compiled``
    the fused run must have compiled a superblock."""
    out = []
    for fuse in (True, False):
        machine = Machine(build(body), fuse=fuse)
        result = machine.run(max_insts=max_insts)
        out.append((result, machine_state(machine)))
        if fuse and compiled:
            assert machine.cpu.sb_compiled >= 1
    return out


#: Loop bodies exercising every compiled template family, hot enough
#: (16 iterations) that superblocks get compiled and re-entered.
DIFFERENTIAL_PROGRAMS = {
    "memory-loop": """
        lda  sp, -128(sp)
        li   t0, 16
        clr  t9
loop:   stq  t0, 0(sp)
        ldq  t1, 0(sp)
        stl  t0, 8(sp)
        ldl  t2, 8(sp)
        stw  t0, 16(sp)
        ldwu t3, 16(sp)
        stb  t0, 24(sp)
        ldbu t4, 24(sp)
        addq t9, t1, t9
        addq t9, t4, t9
        subq t0, 1, t0
        bne  t0, loop
        and  t9, 0xff, t9
""",
    "alu-loop": """
        li   t0, 16
        clr  t9
loop:   sll  t0, 5, t1
        srl  t1, 2, t1
        li   t5, -8
        sra  t5, 1, t2
        sextb t1, t3
        sextw t1, t4
        sextl t2, t5
        umulh t0, t5, t6
        cmplt t0, t1, t7
        cmpule t0, t1, t8
        xor  t1, t2, a3
        bic  a3, t3, a3
        ornot a3, t4, a4
        cmoveq t7, a4, t9
        cmovne t7, t1, t9
        subq t0, 1, t0
        bgt  t0, loop
        and  t9, 0xff, t9
""",
    "call-loop": """
        li   s0, 12
        clr  t9
loop:   mov  s0, a0
        bsr  ra, double
        addq t9, v0, t9
        subq s0, 1, s0
        bne  s0, loop
        and  t9, 0xff, t9
        br   done
double: addq a0, a0, v0
        ret  (ra)
done:
""",
    "self-loop-superblock": """
        li   t0, 40
        li   t9, 2
loop:   addq t9, 1, t9
        subq t9, 1, t9
        subq t0, 1, t0
        bne  t0, loop
        addq t9, 40, t9
""",
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_PROGRAMS))
def test_fused_state_bit_identical(name):
    body = DIFFERENTIAL_PROGRAMS[name]
    (fused_result, fused_state), (simple_result, simple_state) = \
        run_both(body)
    assert fused_result.status == simple_result.status
    assert fused_result.stdout == simple_result.stdout
    assert fused_result.cycles == simple_result.cycles
    assert fused_result.inst_count == simple_result.inst_count
    assert fused_state == simple_state


def test_workload_state_bit_identical():
    module = build_workload("sieve")
    states = []
    for fuse in (True, False):
        machine = Machine(module, fuse=fuse)
        result = machine.run()
        states.append((result.status, result.stdout, result.cycles,
                       result.inst_count, machine_state(machine)))
    assert states[0] == states[1]


def test_computed_jump_into_run_interior():
    """A jsr can land mid-run (no static leader there): the per-inst
    closures must still be reachable at every index."""
    body = """
        li   t9, 90
        laa  pv, mid
        jsr  ra, (pv)
        br   done
entry:  li   t9, 1
mid:    subq t9, 48, t9
        ret  (ra)
done:
"""
    (fused_result, _), (simple_result, _) = run_both(body, compiled=False)
    assert fused_result.status == simple_result.status == 42


def test_branch_targets_split_runs():
    module = build(DIFFERENTIAL_PROGRAMS["memory-loop"])
    machine = Machine(module)
    runs = machine.cpu.superblock_runs()
    # The loop head is a branch target: it must start a superblock (or
    # stay unfused), never sit strictly inside one.
    insts = machine.cpu._insts
    from repro.isa.opcodes import Format
    targets = set()
    for i, inst in enumerate(insts):
        if inst.op.format is Format.BRANCH:
            targets.add(i + 1 + inst.disp)
    assert targets, "test program must contain branches"
    for start, end, term in runs:
        for target in targets:
            assert not (start < target < end), \
                f"branch target {target} inside fused run [{start},{end})"
        assert (end - start) + (term is not None) >= 2


def test_instruction_budget_exact_in_all_modes():
    # A long straight-line loop body: a naive fused charge would blow
    # straight past the budget mid-superblock, and the historical
    # per-instruction tail retired one instruction *past* the budget
    # before raising.  Exactly N instructions must retire — no more —
    # on all three dispatch paths, with identical machine state.
    body = "loop: " + "\n      ".join(["addq t0, 1, t0"] * 30) + \
           "\n      br loop"
    # 100 exhausts a few iterations in; 2000 exhausts well after the
    # hot loop has been promoted into a compiled region.
    for budget in (100, 2000):
        states = {}
        for fuse, jit in ((False, False), (True, False), (True, True)):
            machine = Machine(build(body), fuse=fuse, jit=jit)
            with pytest.raises(MachineError, match="budget"):
                machine.run(max_insts=budget)
            assert machine.cpu.inst_count == budget, \
                f"budget overshot with fuse={fuse} jit={jit}"
            states[(fuse, jit)] = machine_state(machine)
            if fuse:
                assert machine.cpu.sb_compiled >= 1
            if jit and budget == 2000:
                assert machine.cpu.jit.promoted >= 1
        assert states[(False, False)] == states[(True, False)] \
            == states[(True, True)]


def test_memory_fault_pc_identical_in_fused_block():
    # poke runs twice on a valid address (compiling its superblock),
    # then faults inside the *compiled* executor on the third call.
    body = """
        lda  sp, -16(sp)
        mov  sp, a0
        bsr  ra, poke
        bsr  ra, poke
        li   a0, 0x90000000
        bsr  ra, poke
        clr  t9
        br   done
poke:   stq  zero, 0(a0)
        addq a0, 0, a0
        ret  (ra)
done:
"""
    messages = []
    for fuse in (True, False):
        machine = Machine(build(body), fuse=fuse)
        with pytest.raises(MachineError) as excinfo:
            machine.run()
        assert excinfo.value.pc is not None
        messages.append(str(excinfo.value))
        assert machine.cpu.sb_compiled >= fuse
    assert messages[0] == messages[1]
    assert "pc=" in messages[0]


def test_divide_by_zero_pc_identical_in_fused_block():
    body = """
        li   a0, 4
        bsr  ra, dodiv
        bsr  ra, dodiv
        clr  a0
        bsr  ra, dodiv
        clr  t9
        br   done
dodiv:  li   t0, 100
        divq t0, a0, t1
        ret  (ra)
done:
"""
    messages = []
    for fuse in (True, False):
        machine = Machine(build(body), fuse=fuse)
        with pytest.raises(MachineError, match="division by zero") as ei:
            machine.run()
        assert ei.value.pc is not None, \
            f"divide fault lost its pc with fuse={fuse}"
        messages.append(str(ei.value))
        assert machine.cpu.sb_compiled >= fuse
    assert messages[0] == messages[1]
