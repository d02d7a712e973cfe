"""The :class:`Instruction` value type shared by every layer of the system.

The assembler produces them, the encoder packs them into 32-bit words, the
machine decodes words back into them, and OM's symbolic IR annotates them.
An instruction is a small immutable-by-convention record whose meaning is
given by its :class:`~repro.isa.opcodes.OpInfo`.

Register def/use sets come from :data:`EFFECTS`, one register-effect
record per opcode built at import, because both OM's data-flow analyses
and ATOM's register-save machinery read them on every instruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import opcodes, registers
from .opcodes import Format, InstClass, OpInfo

# Syscall argument registers examined by the SYS def/use approximation.
_SYS_USES = frozenset({registers.V0, *registers.ARG_REGS})
_SYS_DEFS = frozenset({registers.V0})

#: ``_ONE[r]`` is ``{r}``, empty for ``zero``; ``_TWO[a][b]`` the same for
#: a pair.  Every def/use set is one of these or a fixed syscall set.
_ONE = tuple(frozenset() if r == registers.ZERO else frozenset({r})
             for r in range(registers.NUM_REGS))
_TWO = tuple(tuple(_ONE[a] | _ONE[b] for b in range(registers.NUM_REGS))
             for a in range(registers.NUM_REGS))


class OpEffects(NamedTuple):
    """Register effects of one opcode: which fields of an instruction name
    the registers it writes and reads, as readers returning the set."""

    defs: Callable[[Instruction], frozenset[int]]
    uses: Callable[[Instruction], frozenset[int]]
    ends_block: bool


def _ra(inst):
    return _ONE[inst.ra]


def _rb(inst):
    return _ONE[inst.rb]


def _rc(inst):
    return _ONE[inst.rc]


def _ra_rb(inst):
    return _TWO[inst.ra][inst.rb]


def _operate(inst):
    return _ONE[inst.ra] if inst.is_lit else _TWO[inst.ra][inst.rb]


def _cmov(inst):
    return _operate(inst) | _ONE[inst.rc]   # may keep the old value


def _fixed(regs: frozenset[int]):
    return lambda inst: regs


_NONE = _fixed(frozenset())

#: Matching Pixie-era tools (and ATOM's view of a block as a run of
#: instructions executed together), calls and syscalls end blocks in
#: addition to branches, jumps and returns.
_BLOCK_ENDERS = frozenset({
    InstClass.COND_BRANCH, InstClass.UNCOND_BRANCH, InstClass.CALL,
    InstClass.JUMP, InstClass.RET, InstClass.SYSCALL, InstClass.HALT})


def _effects(op: OpInfo) -> OpEffects:
    fmt, cls = op.format, op.inst_class
    if fmt is Format.MEMORY:
        defs = _ra if cls in (InstClass.LOAD, InstClass.LOAD_ADDRESS) \
            else _NONE
        uses = _ra_rb if cls is InstClass.STORE else _rb
    elif fmt is Format.BRANCH:
        # Link register (zero for a plain br).
        defs = _ra if cls in (InstClass.UNCOND_BRANCH, InstClass.CALL) \
            else _NONE
        uses = _ra if cls is InstClass.COND_BRANCH else _NONE
    elif fmt is Format.JUMP:
        defs = _ra if cls in (InstClass.CALL, InstClass.JUMP) else _NONE
        uses = _rb
    elif fmt is Format.OPERATE:
        defs = _rc
        uses = _cmov if op in (opcodes.CMOVEQ, opcodes.CMOVNE) \
            else _operate
    elif cls is InstClass.SYSCALL:
        defs, uses = _fixed(_SYS_DEFS), _fixed(_SYS_USES)
    else:
        defs = uses = _NONE
    return OpEffects(defs, uses, cls in _BLOCK_ENDERS)


#: Register effects indexed by opcode number (None for unassigned ones).
EFFECTS: tuple[OpEffects | None, ...] = tuple(
    _effects(opcodes.BY_OPCODE[n]) if n in opcodes.BY_OPCODE else None
    for n in range(64))


@dataclass
class Instruction:
    """One WRL-64 instruction.

    Field use by format:

    * memory:  ``op ra, disp(rb)``
    * branch:  ``op ra, disp`` (signed word displacement from pc+4)
    * jump:    ``op ra, (rb)``
    * operate: ``op ra, rb, rc`` or ``op ra, #lit, rc`` when ``is_lit``
    * system:  ``op imm``
    """

    op: OpInfo
    ra: int = registers.ZERO
    rb: int = registers.ZERO
    rc: int = registers.ZERO
    disp: int = 0
    lit: int = 0
    is_lit: bool = False
    imm: int = 0

    # ---- classification helpers ----------------------------------------

    @property
    def mnemonic(self) -> str:
        return self.op.mnemonic

    @property
    def inst_class(self) -> InstClass:
        return self.op.inst_class

    def is_load(self) -> bool:
        return self.op.inst_class is InstClass.LOAD

    def is_store(self) -> bool:
        return self.op.inst_class is InstClass.STORE

    def is_memory_ref(self) -> bool:
        """True for instructions that access memory (loads and stores)."""
        return self.is_load() or self.is_store()

    def is_cond_branch(self) -> bool:
        return self.op.inst_class is InstClass.COND_BRANCH

    def is_uncond_branch(self) -> bool:
        return self.op.inst_class is InstClass.UNCOND_BRANCH

    def is_call(self) -> bool:
        return self.op.inst_class is InstClass.CALL

    def is_ret(self) -> bool:
        return self.op.inst_class is InstClass.RET

    def is_jump(self) -> bool:
        return self.op.inst_class is InstClass.JUMP

    def is_syscall(self) -> bool:
        return self.op.inst_class is InstClass.SYSCALL

    def ends_block(self) -> bool:
        """True when the instruction terminates a basic block (branches,
        jumps, returns, calls, syscalls and halt)."""
        return EFFECTS[self.op.opcode].ends_block

    def is_control_transfer(self) -> bool:
        return self.ends_block() and self.op.inst_class not in (
            InstClass.SYSCALL, InstClass.HALT)

    # ---- register def/use -----------------------------------------------

    def defs(self) -> frozenset[int]:
        """Registers written by this instruction (never includes ``zero``)."""
        return EFFECTS[self.op.opcode].defs(self)

    def uses(self) -> frozenset[int]:
        """Registers read by this instruction (never includes ``zero``)."""
        return EFFECTS[self.op.opcode].uses(self)

    # ---- misc -------------------------------------------------------------

    def copy(self, **changes) -> "Instruction":
        """A new instruction with ``changes`` applied (TypeError for a
        field that does not exist)."""
        return Instruction(**{**self.__dict__, **changes})

    def __str__(self) -> str:  # assembly-ish rendering, no symbols
        r = registers.reg_name
        op = self.op
        if op.format is Format.MEMORY:
            return f"{op.mnemonic} {r(self.ra)}, {self.disp}({r(self.rb)})"
        if op.format is Format.BRANCH:
            return f"{op.mnemonic} {r(self.ra)}, .{self.disp:+d}"
        if op.format is Format.JUMP:
            return f"{op.mnemonic} {r(self.ra)}, ({r(self.rb)})"
        if op.format is Format.OPERATE:
            src2 = f"#{self.lit}" if self.is_lit else r(self.rb)
            return f"{op.mnemonic} {r(self.ra)}, {src2}, {r(self.rc)}"
        return f"{op.mnemonic} {self.imm}" if op is opcodes.SYS else op.mnemonic


def nop() -> Instruction:
    """The canonical no-op: ``bis zero, zero, zero``."""
    return Instruction(opcodes.BIS, ra=registers.ZERO, rb=registers.ZERO,
                       rc=registers.ZERO)
