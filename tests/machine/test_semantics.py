"""The machine's semantics and the ISA's register effects agree.

``repro.isa.instruction.EFFECTS`` gives every opcode's register def/use:
liveness, ATOM's save placement and the optimizer read it.  The machine
executes ``repro.machine.cpu.SEMANTICS``.  For every opcode and shape
(literal form, zero destination) these tests parse the template as each
consumer fills it, fused lines with constants and the closure factory
with its free variables, and check that the registers it writes are
exactly ``defs()`` and the registers it reads are among ``uses()``.  A
write that some path skips keeps the old value, so it counts as a read
too (a cmov's ``rc``).  Literal register numbers in a template (``sys``
reads v0 and a0-a5 and writes v0) count like any other.
"""

import ast

import pytest

from repro.isa import opcodes, registers
from repro.isa.instruction import EFFECTS, Instruction
from repro.isa.opcodes import Format
from repro.machine.cpu import (SEMANTICS, _closure_source, _fused_lines,
                               _zero_dest)


def shapes():
    for op in opcodes.ALL_OPS:
        sem = SEMANTICS[op.opcode]
        for lit in (False, True) if op.format is Format.OPERATE else (False,):
            for zero in (False, True) if sem.dest else (False,):
                inst = Instruction(op, ra=1, rb=2, rc=3, disp=8, lit=5,
                                   is_lit=lit)
                if zero:
                    inst = inst.copy(**{sem.dest: registers.ZERO})
                yield pytest.param(inst, id=f"{op.mnemonic}"
                                   f"{'-lit' if lit else ''}"
                                   f"{'-zero' if zero else ''}")


def register_of(node, fields):
    """The register an ``r[...]`` subscript names, or None."""
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) \
            and node.value.id == "r":
        index = node.slice
        if isinstance(index, ast.Constant):
            return index.value
        return fields[index.id]
    return None


def always_written(stmts, fields) -> set[int]:
    """Registers every path through ``stmts`` writes."""
    out = set()
    for stmt in stmts:
        if isinstance(stmt, ast.If):
            out |= always_written(stmt.body, fields) \
                & always_written(stmt.orelse, fields)
        elif isinstance(stmt, ast.Assign):
            out |= {register_of(t, fields) for t in stmt.targets} - {None}
    return out


def accesses(body, fields):
    """(reads, writes, always-writes) of the registers in ``body``, a
    function definition's statements; reads of zero are constants."""
    reads, writes = set(), set()
    for node in ast.walk(ast.Module(body=body, type_ignores=[])):
        reg = register_of(node, fields)
        if reg is not None:
            (writes if isinstance(node.ctx, ast.Store) else reads).add(reg)
    return (reads - {registers.ZERO}, writes,
            always_written(body, fields))


def check(inst, reads, writes, always):
    effects = EFFECTS[inst.op.opcode]
    assert writes == effects.defs(inst)
    assert reads | (writes - always) <= effects.uses(inst)


@pytest.mark.parametrize("inst", shapes())
def test_fused_lines_match_register_effects(inst):
    lines = _fused_lines(inst, 10, 0x1000)
    tree = ast.parse("def f():\n    pass\n"
                     + "".join(f"    {line}\n" for line in lines))
    check(inst, *accesses(tree.body[0].body, {}))


@pytest.mark.parametrize("inst", shapes())
def test_closure_matches_register_effects(inst):
    op = inst.op
    src = _closure_source(op.opcode, inst.is_lit,
                          _zero_dest(SEMANTICS[op.opcode], inst))
    make = ast.parse(src).body[0]
    run = next(node for node in make.body
               if isinstance(node, ast.FunctionDef))
    fields = {"ra": inst.ra, "rb": inst.rb, "rc": inst.rc}
    check(inst, *accesses(run.body, fields))

