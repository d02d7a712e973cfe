"""Register-save strategies: ATOM's procedure-call overhead machinery.

The application may not follow calling conventions (hand-crafted assembly,
interprocedural optimization), so every register an analysis call might
modify must be preserved around it (paper Section 4).  Four strategies are
provided as optimization levels:

* **O0** — naive: wrappers save every caller-saved register (ablation
  baseline, not in the paper).
* **O1** — the paper's shipped default: wrappers save only the registers
  the analysis routine *may modify* (interprocedural data-flow summary),
  after register renaming has shrunk the analysis unit's caller-save
  footprint; when none of an analysis routine's call sites sit in a loop,
  saves of registers used only by its callees are *delayed* into internal
  wrappers around those callees, so the error path pays and the hot path
  does not.
* **O2** — the paper's "higher optimization option": no wrapper; the
  saves/restores are added to the analysis routine itself by bumping its
  stack frame and fixing its stack references, and the application calls
  it directly (faster, but hampers source-level debugging).
* **O3** — the paper's planned refinement: live-register analysis of the
  application; only registers live at the instrumentation point are saved,
  inline, with direct calls.
* **O4** — beyond the paper: small, call-free analysis routines are not
  called at all — their (peepholed) bodies are spliced directly into the
  snippet, the save set shrinks to the registers the inlined sequence
  actually clobbers intersected with the application's live set, and a
  cross-point pass (:func:`repro.om.opt.coalesce_snippets`) merges
  adjacent save/restore brackets.  Routines the side-effect summary
  (:func:`repro.om.dataflow.inline_summary`) rejects fall back to O3
  treatment.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..isa import opcodes, registers as R
from ..isa.instruction import Instruction
from ..om import dataflow
from ..om.ir import IRBlock, IRInst, IRProc, IRProgram

#: Registers eligible for saving around analysis calls.  gp joins the
#: caller-saved set because each link unit has its own global pointer.
SAVE_CANDIDATES = frozenset(R.CALLER_SAVED | {R.GP})

#: Stable order for save/restore sequences (deterministic output).
_SAVE_ORDER = sorted(SAVE_CANDIDATES)


class OptLevel(enum.IntEnum):
    O0 = 0
    O1 = 1
    O2 = 2
    O3 = 3
    O4 = 4


@dataclass
class ProcSavePlan:
    """How calls to one analysis procedure preserve application state."""

    name: str                      # analysis procedure name
    arg_count: int
    #: "wrapper" (O0/O1), "inframe" (O2), "inline" (O3),
    #: "inlined" (O4: body spliced at the point, no call at all)
    mode: str = "wrapper"
    #: registers the wrapper (or inline sequence) must save
    saves: tuple[int, ...] = ()
    wrapper_symbol: str = ""
    #: delayed-save bookkeeping (which callees were redirected)
    delayed: bool = False
    #: for mode "inlined": the peepholed body template (sans ret) that the
    #: lowerer clones at every instrumentation point
    body: tuple = ()


@dataclass
class SavePlans:
    level: OptLevel
    plans: dict[str, ProcSavePlan] = field(default_factory=dict)

    def plan(self, name: str) -> ProcSavePlan:
        return self.plans[name]


def compute_plans(anal_ir: IRProgram, targets: dict[str, int],
                  level: OptLevel, *,
                  no_inline: frozenset[str] = frozenset()) -> SavePlans:
    """Build a save plan for every instrumented analysis procedure.

    ``targets`` maps analysis procedure name -> declared argument count.
    Mutates ``anal_ir`` for the delayed-save redirection (O1+) and the
    in-frame transformation (O2).  ``no_inline`` lists routines whose
    prototype carries the ``noinline`` qualifier: at O4 they keep O3
    treatment even when the summary says they could be inlined.
    """
    if level >= OptLevel.O1:
        for proc in anal_ir.procs:
            dataflow.rename_registers(proc)
    maymod = dataflow.modified_registers(anal_ir)
    direct = dataflow.direct_writes(anal_ir)

    plans = SavePlans(level=level)
    iw_needed: set[str] = set()

    for name, argc in sorted(targets.items()):
        proc = anal_ir.find_proc(name)
        if proc is None:
            raise KeyError(f"analysis routine {name!r} not found in the "
                           f"analysis unit")
        arg_regs = frozenset(R.ARG_REGS[:min(argc, 6)])
        plan = ProcSavePlan(name=name, arg_count=argc,
                            wrapper_symbol=f"__atomwrap${name}")
        if level == OptLevel.O0:
            saves = SAVE_CANDIDATES - arg_regs - {R.RA}
        elif _delayed_applicable(anal_ir, proc, level):
            plan.delayed = True
            saves = ((direct[name] | {R.V0, R.PV})
                     & SAVE_CANDIDATES) - arg_regs - {R.RA}
            iw_needed |= _redirect_calls(anal_ir, proc)
        else:
            saves = (maymod[name] & SAVE_CANDIDATES) - arg_regs - {R.RA}
        plan.saves = tuple(r for r in _SAVE_ORDER if r in saves)
        if level == OptLevel.O2:
            plan.mode = "inframe" if _inframe_applicable(proc) else "wrapper"
        elif level >= OptLevel.O3:
            plan.mode = "inline"
            if level >= OptLevel.O4 and name not in no_inline:
                _try_inline(plan, proc, arg_regs, anal_ir.module)
        plans.plans[name] = plan

    # Internal wrappers for delayed saves.
    for callee in sorted(iw_needed):
        saves = ((maymod.get(callee, dataflow.ALL_CALLER_SAVED)
                  | {R.PV}) & SAVE_CANDIDATES) - {R.V0, R.RA}
        _append_internal_wrapper(anal_ir, callee,
                                 tuple(r for r in _SAVE_ORDER
                                       if r in saves))

    # In-frame transformation happens after renaming and redirection.
    if level == OptLevel.O2:
        for name, plan in plans.plans.items():
            if plan.mode == "inframe":
                _transform_in_frame(anal_ir.find_proc(name), plan.saves)
    return plans


def _try_inline(plan: ProcSavePlan, proc: IRProc,
                arg_regs: frozenset[int], module) -> None:
    """Upgrade ``plan`` to mode "inlined" when the routine qualifies.

    Clones the body (sans ret) and optimizes the clone once here — every
    instrumentation point then splices an identical, already-optimized
    template:

    * literal-table loads of in-window analysis data collapse to direct
      gp-relative ``lda`` (:func:`repro.om.opt.convert_got_to_gprel`),
      and address arithmetic folds into memory displacements
      (:func:`repro.om.opt.fuse_lda_bases`);
    * gp rematerialization (``ldgp``) is re-pointed at the absolute
      ``anal$_gp`` landmark so the clone computes the analysis unit's gp
      inside application text;
    * a copy-propagation/DCE peephole cleans what the above strands —
      including the ``ldgp`` pair itself when no access still needs gp.

    The save set is then recomputed from what the template actually
    clobbers.  Argument registers are excluded: the lowerer's argument
    materialization has already versioned them at the point (they are
    saved by the bracket when the *application* needs them live, exactly
    as for O3 calls)."""
    from ..objfile.relocs import Relocation, RelocType
    from ..objfile.sections import TEXT
    from ..om.opt import (convert_got_to_gprel, fuse_lda_bases,
                          peephole_straightline)
    from .lowering import ANAL_GP_SYMBOL

    clobbers = dataflow.inline_summary(proc)
    if clobbers is None:
        return
    body = [IRInst(inst=ir.inst.copy(), relocs=list(ir.relocs))
            for ir in proc.blocks[0].insts[:-1]]
    convert_got_to_gprel(body, module)
    for ir in body:
        ir.relocs = [
            Relocation(TEXT, rel.offset, RelocType.HI16
                       if rel.type is RelocType.GPHI16 else RelocType.LO16,
                       ANAL_GP_SYMBOL, rel.addend)
            if rel.type in (RelocType.GPHI16, RelocType.GPLO16) else rel
            for rel in ir.relocs]
    fuse_lda_bases(body)
    body, _removed = peephole_straightline(body)
    clobbers = frozenset(d for ir in body for d in ir.inst.defs())
    plan.mode = "inlined"
    plan.body = tuple(body)
    saves = (clobbers & SAVE_CANDIDATES) - arg_regs - {R.RA}
    plan.saves = tuple(r for r in _SAVE_ORDER if r in saves)


def _delayed_applicable(anal_ir: IRProgram, proc: IRProc,
                        level: OptLevel) -> bool:
    if level < OptLevel.O1 or level > OptLevel.O2:
        return False
    has_direct_call = False
    for ir in proc.instructions():
        if not ir.inst.is_call():
            continue
        if ir.target is None or ir.target[0] != "symbol" \
                or anal_ir.find_proc(ir.target[1]) is None:
            return False      # indirect or external call: cannot delay
        has_direct_call = True
    if not has_direct_call:
        return False          # nothing to delay
    return not dataflow.call_sites_in_loops(proc)


def _redirect_calls(anal_ir: IRProgram, proc: IRProc) -> set[str]:
    """Route every direct call in ``proc`` through an internal wrapper."""
    redirected: set[str] = set()
    for ir in proc.instructions():
        if ir.inst.is_call() and ir.target and ir.target[0] == "symbol":
            callee = ir.target[1]
            ir.target = ("symbol", f"__atomiw${callee}")
            redirected.add(callee)
    return redirected


def _append_internal_wrapper(anal_ir: IRProgram, callee: str,
                             saves: tuple[int, ...]) -> None:
    name = f"__atomiw${callee}"
    if anal_ir.find_proc(name) is not None:
        return
    # The internal wrapper cannot know each call site's argument count
    # (printf-style callees vary), so it forwards a generous fixed number
    # of stack-argument slots; extra slots copy harmless caller-frame
    # bytes.
    insts = wrapper_body(saves, target=("symbol", callee), copy_args=14)
    block = IRBlock(index=-1)
    block.insts = insts
    proc = IRProc(name=name, blocks=[block])
    block.proc = proc
    anal_ir.procs.append(proc)


# ---- wrapper code generation ---------------------------------------------------

def wrapper_body(saves: tuple[int, ...], *, target: tuple,
                 copy_args: int = 0,
                 target_relocs: list | None = None) -> list[IRInst]:
    """Build the instruction list of a wrapper routine.

    The wrapper saves its incoming ra plus ``saves``, copies any stack
    arguments down to its own outgoing area (``copy_args`` = total declared
    arguments), calls the target, restores, and returns.

    ``target`` is ("symbol", name) for a bsr, or ("absolute", name) to
    load the callee address via a ldah/lda pair carrying HI16/LO16
    relocations against ``name`` (used when the analysis unit lies beyond
    bsr reach).
    """
    from ..objfile.relocs import Relocation, RelocType
    from ..objfile.sections import TEXT

    out_slots = max(0, copy_args - 6)
    need_at = out_slots > 0
    save_list = list(saves)
    if need_at and R.AT not in save_list:
        save_list.append(R.AT)
    kind = target[0]
    if kind == "absolute" and R.PV not in save_list:
        save_list.append(R.PV)
    frame = 8 * (out_slots + len(save_list) + 1)
    frame = (frame + 15) & ~15
    ra_off = 8 * out_slots

    def mem(op, reg, disp):
        return IRInst(Instruction(op, ra=reg, rb=R.SP, disp=disp))

    insts: list[IRInst] = []
    insts.append(IRInst(Instruction(opcodes.LDA, ra=R.SP, rb=R.SP,
                                    disp=-frame)))
    insts.append(mem(opcodes.STQ, R.RA, ra_off))
    for i, reg in enumerate(save_list):
        insts.append(mem(opcodes.STQ, reg, ra_off + 8 + 8 * i))
    # Copy incoming stack arguments down to our outgoing area.
    for k in range(out_slots):
        insts.append(mem(opcodes.LDQ, R.AT, frame + 8 * k))
        insts.append(mem(opcodes.STQ, R.AT, 8 * k))
    if kind == "symbol":
        insts.append(IRInst(Instruction(opcodes.BSR, ra=R.RA),
                            target=("symbol", target[1])))
    else:
        hi = IRInst(Instruction(opcodes.LDAH, ra=R.PV, rb=R.ZERO))
        hi.relocs.append(Relocation(TEXT, 0, RelocType.HI16, target[1], 0))
        lo = IRInst(Instruction(opcodes.LDA, ra=R.PV, rb=R.PV))
        lo.relocs.append(Relocation(TEXT, 0, RelocType.LO16, target[1], 0))
        insts.extend([hi, lo])
        insts.append(IRInst(Instruction(opcodes.JSR, ra=R.RA, rb=R.PV)))
    for i, reg in enumerate(save_list):
        insts.append(mem(opcodes.LDQ, reg, ra_off + 8 + 8 * i))
    insts.append(mem(opcodes.LDQ, R.RA, ra_off))
    insts.append(IRInst(Instruction(opcodes.LDA, ra=R.SP, rb=R.SP,
                                    disp=frame)))
    insts.append(IRInst(Instruction(opcodes.RET, ra=R.ZERO, rb=R.RA)))
    return insts


def build_wrapper_proc(plan: ProcSavePlan, target_symbol: str,
                       far: bool) -> IRProc:
    """Create the wrapper IRProc for one analysis procedure."""
    target = ("absolute", target_symbol) if far \
        else ("symbol", target_symbol)
    insts = wrapper_body(plan.saves, target=target,
                         copy_args=plan.arg_count)
    block = IRBlock(index=-1)
    block.insts = insts
    proc = IRProc(name=plan.wrapper_symbol, blocks=[block])
    block.proc = proc
    return proc


# ---- O2: in-frame saves -------------------------------------------------------

def _inframe_applicable(proc: IRProc) -> bool:
    if proc.frame_size is None or proc.frame_outgoing is None:
        return False       # no frame metadata (hand-written assembly)
    if proc.frame_size == 0:
        # Frameless leaf routine: in-frame saves synthesize a fresh frame,
        # which is only safe when the routine never touches sp.
        return not any(R.SP in (ir.inst.defs() | ir.inst.uses())
                       for ir in proc.instructions())
    return True


def _transform_in_frame(proc: IRProc, saves: tuple[int, ...]) -> None:
    """Bump the analysis routine's frame and add saves/restores in place.

    Mirrors the paper: "The extra space is allocated in the analysis
    routine's stack frame.  This requires bumping the stack frame and
    fixing stack references in the analysis routines as needed."
    """
    if not saves:
        return
    extra = 8 * len(saves)
    extra = (extra + 15) & ~15
    frame = proc.frame_size
    outgoing = proc.frame_outgoing

    if frame == 0:
        _synthesize_frame(proc, saves, extra)
        return

    def save_seq():
        return [IRInst(Instruction(opcodes.STQ, ra=reg, rb=R.SP,
                                   disp=outgoing + 8 * i))
                for i, reg in enumerate(saves)]

    def restore_seq():
        return [IRInst(Instruction(opcodes.LDQ, ra=reg, rb=R.SP,
                                   disp=outgoing + 8 * i))
                for i, reg in enumerate(saves)]

    for block in proc.blocks:
        new_insts: list[IRInst] = []
        for ir in block.insts:
            inst = ir.inst
            is_sp_mem = (inst.op.format.value == "memory"
                         and inst.rb == R.SP)
            if inst.op is opcodes.LDA and inst.ra == R.SP \
                    and inst.rb == R.SP and inst.disp == -frame:
                inst.disp = -(frame + extra)
                new_insts.append(ir)
                new_insts.extend(save_seq())
                continue
            if inst.op is opcodes.LDA and inst.ra == R.SP \
                    and inst.rb == R.SP and inst.disp == frame:
                inst.disp = frame + extra
                new_insts.extend(restore_seq())
                new_insts.append(ir)
                continue
            if is_sp_mem and inst.disp >= outgoing:
                # Slots above the outgoing-argument area shifted by extra.
                inst.disp += extra
            new_insts.append(ir)
        block.insts = new_insts
    proc.frame_size = frame + extra


def _synthesize_frame(proc: IRProc, saves: tuple[int, ...],
                      extra: int) -> None:
    """Give a frameless leaf routine a frame just for its saves.

    Safe because the routine never references sp, so nothing needs
    fixing up; the prologue goes at entry and the restores before every
    return."""
    def save_seq():
        out = [IRInst(Instruction(opcodes.LDA, ra=R.SP, rb=R.SP,
                                  disp=-extra))]
        out += [IRInst(Instruction(opcodes.STQ, ra=reg, rb=R.SP,
                                   disp=8 * i))
                for i, reg in enumerate(saves)]
        return out

    def restore_seq():
        out = [IRInst(Instruction(opcodes.LDQ, ra=reg, rb=R.SP,
                                  disp=8 * i))
               for i, reg in enumerate(saves)]
        out.append(IRInst(Instruction(opcodes.LDA, ra=R.SP, rb=R.SP,
                                      disp=extra)))
        return out

    proc.blocks[0].insts[:0] = save_seq()
    for block in proc.blocks:
        new_insts: list[IRInst] = []
        for ir in block.insts:
            if ir.inst.is_ret():
                new_insts.extend(restore_seq())
            new_insts.append(ir)
        block.insts = new_insts
    proc.frame_size = extra
    proc.frame_outgoing = 0
