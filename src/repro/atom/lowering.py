"""Lowering instrumentation actions into inline code snippets.

For each instrumentation point ATOM generates (paper Section 4):

1. ``lda sp, -S(sp)`` — allocate stack space;
2. stores of the registers the snippet clobbers (always the return-address
   register, plus the argument registers it overwrites and any scratch);
3. argument materialization, priced exactly as the paper describes: a
   16-bit constant in one instruction, a 32-bit constant in two, a 64-bit
   program counter in three; register contents in one (``REGV``);
   ``EffAddrValue`` as a single ``lda``; ``BrCondValue`` as the branch
   condition re-evaluated into the argument register;
4. a pc-relative ``bsr`` when the callee is within range, otherwise the
   procedure value is loaded and a ``jsr`` used;
5. restores and ``lda sp, +S(sp)``.

Reads of application registers the snippet has already clobbered come from
their save slots; reads of ``sp`` are rewritten ``sp + S`` so analysis
routines always observe the *original* value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa import const, opcodes, registers as R
from ..isa.instruction import Instruction
from ..obs import TRACE
from ..objfile.relocs import Relocation, RelocType
from ..objfile.sections import TEXT
from ..om.ir import Action, IRInst
from ..om.opt import specialize_point
from .api import AtomError
from .saves import OptLevel, SavePlans

#: Symbol the lowered code uses to reach instrumentation-time data
#: (strings and arrays passed as arguments); defined by the layout step.
ATOM_DATA_SYMBOL = "atom$data"
#: Prefix partitioning analysis symbols from application symbols.
ANAL_PREFIX = "anal$"
#: Absolute symbol carrying the analysis unit's global-pointer value;
#: gp rematerialization inside inlined bodies (O4) is re-pointed at it so
#: the clone computes the same gp the called routine would have.
ANAL_GP_SYMBOL = ANAL_PREFIX + "_gp"

_BRCOND_PLANS = {
    # branch mnemonic -> (op, ra_is_zero, post_xor_1)
    "beq": (opcodes.CMPEQ, False, False),    # rt == 0
    "bne": (opcodes.CMPULT, True, False),    # 0 <u rt
    "blt": (opcodes.CMPLT, False, False),    # rt < 0
    "ble": (opcodes.CMPLE, False, False),    # rt <= 0
    "bgt": (opcodes.CMPLT, True, False),     # 0 < rt
    "bge": (opcodes.CMPLE, True, False),     # 0 <= rt
    "blbs": (opcodes.AND, False, False),     # rt & 1
    "blbc": (opcodes.AND, False, True),      # (rt & 1) ^ 1
}


@dataclass
class AtomData:
    """Allocator for instrumentation-time data (strings, arrays)."""

    chunks: list[bytes] = field(default_factory=list)
    size: int = 0
    _dedupe: dict[bytes, int] = field(default_factory=dict)

    def place(self, data: bytes, align: int = 8) -> int:
        cached = self._dedupe.get(data)
        if cached is not None:
            return cached
        pad = (-self.size) % align
        if pad:
            self.chunks.append(b"\x00" * pad)
            self.size += pad
        offset = self.size
        self.chunks.append(data)
        self.size += len(data)
        self._dedupe[data] = offset
        return offset

    def blob(self) -> bytes:
        return b"".join(self.chunks)


@dataclass
class Lowerer:
    """Generates one snippet per instrumentation point."""

    plans: SavePlans
    data: AtomData
    #: use bsr (True) or ldah/lda+jsr for direct analysis calls
    analysis_in_bsr_range: bool = False
    #: instrumentation points lowered so far (save-bracket site ids)
    _sites: int = 0
    #: analysis calls replaced by spliced bodies (O4)
    inlined_calls: int = 0

    # ---- entry point -------------------------------------------------------

    def snippet(self, actions: list[Action], app_inst: IRInst | None,
                live: frozenset[int] | None = None) -> list[IRInst]:
        """Lower the ordered action list of one point into instructions.

        ``app_inst`` is the application instruction the point refers to
        (for EffAddrValue/BrCondValue); ``live`` restricts saves at O3.
        """
        if not actions:
            return []
        level = self.plans.level
        arg_regs_used = 0
        stack_args = 0
        inline_extra: set[int] = set()
        uses_jsr = False
        needs_call = False
        for action in actions:
            plan = self.plans.plan(action.proc_name)
            arg_regs_used = max(arg_regs_used, min(plan.arg_count, 6))
            stack_args = max(stack_args, max(0, plan.arg_count - 6))
            if plan.mode != "inlined":
                needs_call = True
            if plan.mode in ("inframe", "inline") \
                    and not self.analysis_in_bsr_range:
                uses_jsr = True
            if plan.mode in ("inline", "inlined"):
                inline_extra |= set(plan.saves)

        # A fully inlined point performs no call: ra stays untouched.
        saved: list[int] = [R.RA] if needs_call else []
        saved += [R.ARG_REGS[i] for i in range(arg_regs_used)]
        if stack_args:
            saved.append(R.AT)
        if uses_jsr:
            saved.append(R.PV)
        for reg in sorted(inline_extra):
            if reg not in saved:
                saved.append(reg)
        if live is not None:
            # O3: skip saving registers that are dead in the application —
            # except registers the snippet itself must *read* the original
            # value of (REGV/EffAddrValue/BrCondValue sources), which need
            # their slot regardless of liveness.
            sources: set[int] = set()
            for action in actions:
                for arg in action.args:
                    if arg[0] == "regv":
                        sources.add(arg[1])
                    elif arg[0] == "effaddr":
                        sources.add(app_inst.inst.rb)
                    elif arg[0] == "brcond":
                        sources.add(app_inst.inst.ra)
            # gp gets no special treatment: liveness models it exactly
            # (live at rets and before calls, killed by ldgp), so a point
            # where gp is dead may clobber it freely — the application
            # rematerializes before any use.
            always = {R.SP}
            saved = [r for r in saved
                     if r in live or r in always or r in sources]
        slot = {reg: 8 * (stack_args + i) for i, reg in enumerate(saved)}
        frame = 8 * stack_args + 8 * len(saved)
        frame = (frame + 15) & ~15

        site = self._sites
        self._sites += 1
        # Bracket identity for the cross-point coalescer.  The save set
        # is keyed as (register, slot displacement) pairs: point
        # specialization may shrink a bracket without re-compacting the
        # surviving slots, so the register list alone does not pin down
        # the layout — only identical (reg, slot) layouts are
        # interchangeable.
        key = (frame, stack_args,
               tuple((reg, slot[reg]) for reg in saved))

        insts: list[IRInst] = []
        emit = insts.append
        if frame:
            pro = _lda(R.SP, R.SP, -frame)
            pro.snip = (site, "pro", key)
            emit(pro)
            for reg in saved:
                st = _mem(opcodes.STQ, reg, R.SP, slot[reg])
                st.snip = (site, "pro", key)
                emit(st)

        for action in actions:
            plan = self.plans.plan(action.proc_name)
            self._emit_args(emit, action, app_inst, saved, slot, frame)
            if plan.mode == "inlined":
                self._splice_inline(emit, plan)
            elif plan.mode == "wrapper":
                emit(IRInst(Instruction(opcodes.BSR, ra=R.RA),
                            target=("symbol", plan.wrapper_symbol)))
            else:
                self._emit_direct_call(emit, plan)

        if frame:
            for reg in reversed(saved):
                ld = _mem(opcodes.LDQ, reg, R.SP, slot[reg])
                ld.snip = (site, "epi", key)
                emit(ld)
            epi = _lda(R.SP, R.SP, frame)
            epi.snip = (site, "epi", key)
            emit(epi)
        if level >= OptLevel.O4 and not needs_call and live is not None:
            # Fully inlined and straight-line: fold instrumentation-time
            # constants into the body and re-derive the save bracket from
            # what actually remains.
            insts = specialize_point(insts, live)
        if TRACE.enabled:
            TRACE.count("lowering.snippets")
            TRACE.count("lowering.snippet_insts", len(insts))
            TRACE.count("lowering.saved_regs", len(saved))
        return insts

    # ---- pieces --------------------------------------------------------------

    def _emit_direct_call(self, emit, plan) -> None:
        target = ANAL_PREFIX + plan.name
        if self.analysis_in_bsr_range:
            emit(IRInst(Instruction(opcodes.BSR, ra=R.RA),
                        target=("symbol", target)))
            return
        hi = IRInst(Instruction(opcodes.LDAH, ra=R.PV, rb=R.ZERO))
        hi.relocs.append(Relocation(TEXT, 0, RelocType.HI16, target, 0))
        lo = IRInst(Instruction(opcodes.LDA, ra=R.PV, rb=R.PV))
        lo.relocs.append(Relocation(TEXT, 0, RelocType.LO16, target, 0))
        emit(hi)
        emit(lo)
        emit(IRInst(Instruction(opcodes.JSR, ra=R.RA, rb=R.PV)))

    def _splice_inline(self, emit, plan) -> None:
        """Splice the pre-optimized body template of an inlined routine.

        Each template instruction is cloned (codegen keys addresses by
        instruction identity, so templates must never be shared between
        points).  Relocation conversion already happened at plan time
        (:func:`repro.atom.saves._try_inline`): templates only carry
        HI16/LO16 forms, which resolve against the application plus the
        injected ``anal$`` landmark symbols.
        """
        for tmpl in plan.body:
            for rel in tmpl.relocs:
                if rel.type not in (RelocType.HI16, RelocType.LO16):
                    # pragma: no cover - plan-time conversion is total
                    raise AtomError(
                        f"relocation {rel.type} survived template "
                        f"conversion of {plan.name!r}")
            emit(IRInst(inst=tmpl.inst.copy(), relocs=list(tmpl.relocs),
                        origin=plan.name))
        self.inlined_calls += 1
        if TRACE.enabled:
            TRACE.count("lowering.inlined_calls")

    def _emit_args(self, emit, action: Action, app_inst: IRInst | None,
                   saved: list[int], slot: dict[int, int],
                   frame: int) -> None:
        for j, arg in enumerate(action.args):
            if j < 6:
                dest = R.ARG_REGS[j]
                self._one_arg(emit, arg, dest, app_inst, saved, slot,
                              frame)
            else:
                self._one_arg(emit, arg, R.AT, app_inst, saved, slot,
                              frame)
                emit(_mem(opcodes.STQ, R.AT, R.SP, 8 * (j - 6)))

    def _one_arg(self, emit, arg: tuple, dest: int,
                 app_inst: IRInst | None, saved: list[int],
                 slot: dict[int, int], frame: int) -> None:
        kind = arg[0]
        if kind == "const":
            for inst in const.materialize(arg[1], dest):
                emit(IRInst(inst))
            return
        if kind == "regv":
            self._read_app_reg(emit, arg[1], dest, saved, slot, frame)
            return
        if kind == "effaddr":
            mem = app_inst.inst
            base, disp = mem.rb, mem.disp
            if base == R.SP:
                emit(_lda(dest, R.SP, disp + frame))
            elif base in slot:
                emit(_mem(opcodes.LDQ, dest, R.SP, slot[base]))
                emit(_lda(dest, dest, disp))
            else:
                emit(_lda(dest, base, disp))
            return
        if kind == "brcond":
            br = app_inst.inst
            plan = _BRCOND_PLANS.get(br.mnemonic)
            if plan is None:
                raise AtomError(f"BrCondValue on {br.mnemonic}")
            op, zero_first, post_xor = plan
            test_reg = br.ra
            src = self._app_reg_source(emit, test_reg, dest, saved, slot,
                                       frame)
            if op is opcodes.AND:
                emit(IRInst(Instruction(op, ra=src, lit=1, is_lit=True,
                                        rc=dest)))
            elif zero_first:
                emit(IRInst(Instruction(op, ra=R.ZERO, rb=src, rc=dest)))
            else:
                emit(IRInst(Instruction(op, ra=src, lit=0, is_lit=True,
                                        rc=dest)))
            if post_xor:
                emit(IRInst(Instruction(opcodes.XOR, ra=dest, lit=1,
                                        is_lit=True, rc=dest)))
            return
        if kind == "data":
            offset = self.data.place(arg[1], align=max(arg[2], 8)
                                     if len(arg) > 2 else 8)
            hi = IRInst(Instruction(opcodes.LDAH, ra=dest, rb=R.ZERO))
            hi.relocs.append(Relocation(TEXT, 0, RelocType.HI16,
                                        ATOM_DATA_SYMBOL, offset))
            lo = IRInst(Instruction(opcodes.LDA, ra=dest, rb=dest))
            lo.relocs.append(Relocation(TEXT, 0, RelocType.LO16,
                                        ATOM_DATA_SYMBOL, offset))
            emit(hi)
            emit(lo)
            return
        raise AssertionError(kind)  # pragma: no cover

    def _read_app_reg(self, emit, reg: int, dest: int, saved, slot,
                      frame) -> None:
        """dest := the application's value of ``reg`` at this point."""
        if reg == R.SP:
            emit(_lda(dest, R.SP, frame))
        elif reg in slot:
            emit(_mem(opcodes.LDQ, dest, R.SP, slot[reg]))
        elif reg == R.ZERO:
            emit(IRInst(Instruction(opcodes.BIS, ra=R.ZERO, rb=R.ZERO,
                                    rc=dest)))
        else:
            emit(IRInst(Instruction(opcodes.BIS, ra=reg, rb=R.ZERO,
                                    rc=dest)))

    def _app_reg_source(self, emit, reg: int, scratch: int, saved, slot,
                        frame) -> int:
        """Return a register currently holding the app's value of ``reg``,
        loading into ``scratch`` when the original was clobbered."""
        if reg == R.SP:
            emit(_lda(scratch, R.SP, frame))
            return scratch
        if reg in slot:
            emit(_mem(opcodes.LDQ, scratch, R.SP, slot[reg]))
            return scratch
        return reg


def _lda(ra: int, rb: int, disp: int) -> IRInst:
    return IRInst(Instruction(opcodes.LDA, ra=ra, rb=rb, disp=disp))


def _mem(op, ra: int, rb: int, disp: int) -> IRInst:
    return IRInst(Instruction(op, ra=ra, rb=rb, disp=disp))
