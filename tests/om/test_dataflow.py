"""Data-flow analysis tests: summaries, loops, liveness, renaming."""

import pytest

from repro.atom import OptLevel
from repro.eval import apply_tool
from repro.isa import registers as R
from repro.isa.asm import assemble
from repro.machine import run_module
from repro.objfile.linker import LinkConfig, link
from repro.om import (Liveness, build_ir, call_sites_in_loops,
                      direct_writes, emit, modified_registers, proc_writes,
                      rename_registers)
from repro.om.dataflow import (_CALL_USES, _LIVE_AT_RET, ALL_CALLER_SAVED,
                               blocks_in_loops)
from repro.tools import get_tool
from repro.workloads import WORKLOAD_NAMES, build_workload


def unit(body: str):
    mod = link([assemble(body, "t.s")],
               config=LinkConfig(require_entry=False))
    return build_ir(mod)


def test_proc_writes():
    prog = unit("""
        .globl f
        .ent f
f:      addq t0, t1, t2
        ldq  t3, 0(sp)
        stq  t3, 8(sp)
        ret
        .end f
    """)
    writes = proc_writes(prog.proc("f"))
    assert writes == {R.T2, R.T3}


def test_modified_registers_transitive():
    prog = unit("""
        .globl a
        .ent a
a:      bsr ra, b
        ret
        .end a
        .globl b
        .ent b
b:      addq t5, 1, t5
        ret
        .end b
    """)
    summary = modified_registers(prog)
    assert R.T5 in summary["a"]          # through the call
    assert R.RA in summary["a"]          # bsr writes ra
    assert R.T5 in summary["b"]
    assert R.RA not in summary["b"]


def test_indirect_call_widens_to_all_caller_saved():
    prog = unit("""
        .globl f
        .ent f
f:      jsr ra, (pv)
        ret
        .end f
    """)
    summary = modified_registers(prog)
    assert ALL_CALLER_SAVED <= summary["f"]
    assert ALL_CALLER_SAVED <= direct_writes(prog)["f"]


def test_recursive_summary_terminates():
    prog = unit("""
        .globl f
        .ent f
f:      addq t7, 1, t7
        bsr ra, f
        ret
        .end f
    """)
    summary = modified_registers(prog)
    assert R.T7 in summary["f"]


def test_loop_detection():
    prog = unit("""
        .globl f
        .ent f
f:      clr t0
loop:   addq t0, 1, t0
        subq t0, 10, t1
        bne t1, loop
        ret
        .end f
        .globl g
        .ent g
g:      bsr ra, f
        ret
        .end g
    """)
    f = prog.proc("f")
    loopy = blocks_in_loops(f)
    assert len(loopy) == 1               # only the loop body block
    assert not call_sites_in_loops(f)
    assert not call_sites_in_loops(prog.proc("g"))


def test_call_in_loop_detected():
    prog = unit("""
        .globl f
        .ent f
f:      clr s0
loop:   bsr ra, g
        addq s0, 1, s0
        subq s0, 3, t0
        bne t0, loop
        ret
        .end f
        .globl g
        .ent g
g:      ret
        .end g
    """)
    assert call_sites_in_loops(prog.proc("f"))


class TestLiveness:
    def test_dead_register_not_live(self):
        prog = unit("""
        .globl f
        .ent f
f:      addq t0, t1, t2
        clr  t2
        ret
        .end f
        """)
        f = prog.proc("f")
        live = Liveness(f)
        block = f.blocks[0]
        # Before the first instruction t0/t1 are live (they're read).
        before = live.live_before(block, 0)
        assert R.T0 in before and R.T1 in before
        # t2 written then overwritten: not live after instruction 0.
        assert R.T2 not in live.live_after(block, 0)
        # v0 is live at return by convention.
        assert R.V0 in live.live_before(block, 2)

    def test_value_live_across_branch(self):
        prog = unit("""
        .globl f
        .ent f
f:      li   t4, 5
        beq  a0, skip
        addq t4, 1, t4
skip:   mov  t4, v0
        ret
        .end f
        """)
        f = prog.proc("f")
        live = Liveness(f)
        # t4 live after its definition through both paths.
        assert R.T4 in live.live_after(f.blocks[0], 0)
        assert R.T4 in live.live_in[f.blocks[2].index]

    def test_call_kills_caller_saved(self):
        prog = unit("""
        .globl f
        .ent f
f:      li   t3, 7
        bsr  ra, g
        mov  v0, t3
        ret
        .end f
        .globl g
        .ent g
g:      ret
        .end g
        """)
        f = prog.proc("f")
        live = Liveness(f)
        # t3's first value dies at the call (caller-saved, not re-read).
        assert R.T3 not in live.live_before(f.blocks[0], 1)


class TestLivenessReference:
    """Liveness against the per-instruction backward walk it replaced:
    every block of every workload's procedures, and of one
    prof@O4-instrumented module, whose blocks carry spliced analysis
    bodies and save brackets."""

    @staticmethod
    def _walk(block, live, stop=0):
        current = set(live)
        for i in range(len(block.insts) - 1, stop - 1, -1):
            inst = block.insts[i].inst
            if inst.is_call():
                current -= ALL_CALLER_SAVED
                current |= _CALL_USES
            else:
                current -= inst.defs()
                current |= inst.uses()
        return frozenset(current)

    def _reference(self, proc):
        live_out = {b.index: _LIVE_AT_RET if not b.succs else frozenset()
                    for b in proc.blocks}
        live_in = {b.index: frozenset() for b in proc.blocks}
        changed = True
        while changed:
            changed = False
            for block in reversed(proc.blocks):
                out = set(_LIVE_AT_RET) if not block.succs else set()
                for succ in block.succs:
                    out |= live_in[succ.index]
                live_out[block.index] = frozenset(out)
                new_in = self._walk(block, out)
                if new_in != live_in[block.index]:
                    live_in[block.index] = new_in
                    changed = True
        return live_in, live_out

    def _check(self, program):
        blocks = 0
        for proc in program.procs:
            live = Liveness(proc)
            ref_in, ref_out = self._reference(proc)
            assert live.live_in == ref_in, proc.name
            assert live.live_out == ref_out, proc.name
            for block in proc.blocks:
                n = len(block.insts)
                assert live.block_lives(block) == [
                    self._walk(block, ref_out[block.index], i)
                    for i in range(n + 1)], (proc.name, block.index)
                blocks += 1
        assert blocks

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_workload_procs(self, name):
        self._check(build_ir(build_workload(name)))

    def test_instrumented_module(self):
        res = apply_tool(build_workload("crc"), get_tool("prof"),
                         opt=OptLevel.O4, cache=None)
        self._check(build_ir(res.module))


class TestRenaming:
    def test_sparse_temps_densified(self):
        prog = unit("""
        .globl f
        .ent f
f:      addq t5, t9, t11
        mov  t11, v0
        ret
        .end f
        """)
        f = prog.proc("f")
        mapping = rename_registers(f)
        assert mapping[R.T5] == R.T0
        assert mapping[R.T9] == R.T1
        assert mapping[R.T11] == R.T2
        used = set()
        for ir in f.instructions():
            used |= (ir.inst.defs() | ir.inst.uses()) & set(R.RENAME_POOL)
        assert used == {R.T0, R.T1, R.T2}

    def test_renaming_preserves_behavior(self):
        src = """
        .text
        .globl __start
        .ent __start
__start:
        li   t7, 6
        li   t10, 7
        mulq t7, t10, t4
        mov  t4, a0
        li   v0, 1
        sys
        .end __start
        """
        exe = link([assemble(src, "t.s")])
        prog = build_ir(exe)
        rename_registers(prog.proc("__start"))
        out = emit(prog)
        result = run_module(out.module)
        assert result.status == 42

    def test_convention_registers_untouched(self):
        prog = unit("""
        .globl f
        .ent f
f:      mov a0, t6
        addq t6, 1, v0
        ret
        .end f
        """)
        f = prog.proc("f")
        mapping = rename_registers(f)
        assert R.A0 not in mapping and R.V0 not in mapping
        first = f.blocks[0].insts[0].inst
        assert first.ra == R.A0              # a0 still the source
