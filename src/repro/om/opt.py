"""Link-time optimizations over OM IR.

The paper builds ATOM on OM, a system whose purpose is link-time
*optimization*; two of its published passes are reproduced here:

* **unreachable-procedure elimination** (Srivastava, LOPLAS 1992 —
  reference [13]): procedures that can never be reached from the entry
  point and never have their address taken are deleted from the IR, so
  the code generator simply does not place them;
* **address-calculation optimization** (Srivastava & Wall, PLDI 1994 —
  reference [12]): redundant literal-table loads (``ldq rX,
  %got(sym)(gp)``) are replaced by register copies when another register
  is already known to hold the same address within the block.
"""

from __future__ import annotations

from ..isa import opcodes, registers as R
from ..isa.instruction import Instruction
from ..isa.opcodes import InstClass
from ..obs import TRACE
from ..objfile.relocs import RelocType
from ..objfile.sections import TEXT
from .dataflow import call_graph
from .ir import IRInst, IRProgram


def address_taken_procs(program: IRProgram) -> set[str]:
    """Procedures whose address escapes via any retained relocation."""
    module = program.module
    names = {p.name for p in program.procs}
    bounds = {}
    for proc in program.procs:
        size = 4 * proc.inst_count()
        bounds[proc.name] = (proc.orig_addr, proc.orig_addr + size)
    taken: set[str] = set()
    for rel in module.relocs:
        if rel.symbol in names:
            sym = module.symtab.get(rel.symbol)
            if sym is not None and sym.section == TEXT:
                taken.add(rel.symbol)
    return taken


def reachable_procs(program: IRProgram, roots: list[str]) -> set[str]:
    """Procedures reachable from the roots through direct calls."""
    graph = call_graph(program)
    seen: set[str] = set()
    work = [r for r in roots if program.find_proc(r) is not None]
    indirect_anywhere = False
    while work:
        name = work.pop()
        if name in seen:
            continue
        seen.add(name)
        for callee in graph.get(name, ()):
            if callee is None:
                indirect_anywhere = True
            elif callee not in seen:
                work.append(callee)
    if indirect_anywhere:
        # Any indirect call may reach any address-taken procedure (and
        # everything those reach).
        for name in address_taken_procs(program):
            if name not in seen:
                work.append(name)
        while work:
            name = work.pop()
            if name in seen:
                continue
            seen.add(name)
            for callee in graph.get(name, ()):
                if callee is not None and callee not in seen:
                    work.append(callee)
    return seen


def eliminate_unreachable(program: IRProgram,
                          roots: list[str] | None = None) -> list[str]:
    """Drop unreachable, never-address-taken procedures; returns their names.

    Default roots: the procedure containing the entry point, plus every
    global procedure when no entry is recorded (a library unit).
    """
    with TRACE.span("om.opt.unreachable", "om") as sp:
        removed = _eliminate_unreachable(program, roots)
        sp.add(removed=len(removed))
        TRACE.count("om.procs_removed", len(removed))
        return removed


def _eliminate_unreachable(program: IRProgram,
                           roots: list[str] | None) -> list[str]:
    module = program.module
    if roots is None:
        roots = []
        if module.entry:
            for proc in program.procs:
                if proc.orig_addr == module.entry:
                    roots.append(proc.name)
        if not roots:
            roots = [p.name for p in program.procs if p.is_global]
    keep = reachable_procs(program, roots)
    keep |= address_taken_procs(program)
    removed = [p.name for p in program.procs if p.name not in keep]
    if removed:
        gone = set(removed)
        program.procs = [p for p in program.procs if p.name not in gone]
        # Drop text labels that lived inside removed procedures.
        placed = {id(ir) for p in program.procs for ir in p.instructions()}
        dropped = {name for name, ir in program.text_labels.items()
                   if id(ir) not in placed}
        program.removed_labels |= dropped
        program.text_labels = {
            name: ir for name, ir in program.text_labels.items()
            if name not in dropped}
    return removed


# ---- address-calculation optimization (reference [12]) -----------------------

def optimize_got_loads(program: IRProgram) -> int:
    """Eliminate redundant literal-table loads within basic blocks.

    MLC (like most compilers) reloads a global's address from the literal
    table every time it is referenced.  Within a basic block the second
    and later loads of the same slot are pure repeats as long as the
    register holding the first result is intact, so they become register
    copies — the local case of OM's address-calculation optimization.

    Returns the number of loads rewritten.
    """
    with TRACE.span("om.opt.got_loads", "om") as sp:
        rewritten = _optimize_got_loads(program)
        sp.add(rewritten=rewritten)
        TRACE.count("om.got_loads_removed", rewritten)
        return rewritten


def _optimize_got_loads(program: IRProgram) -> int:
    rewritten = 0
    for proc in program.procs:
        # OUT-state per block so facts survive along forward
        # single-predecessor edges (the if-skip / fall-through pattern).
        out_state: dict[int, dict] = {}
        for block in proc.blocks:
            # register -> (symbol, addend) whose slot value it holds
            holds: dict[int, tuple[str, int]] = {}
            if len(block.preds) == 1 and id(block.preds[0]) in out_state:
                holds = dict(out_state[id(block.preds[0])])
            for ir in block.insts:
                inst = ir.inst
                got = _got_key(ir)
                if got is not None:
                    source = _register_holding(holds, got)
                    if source is not None and source != inst.ra:
                        ir.inst = inst.copy(op=opcodes.BIS, ra=source,
                                            rb=R.ZERO, rc=inst.ra,
                                            disp=0)
                        ir.relocs = [r for r in ir.relocs
                                     if r.type is not RelocType.GOT16]
                        holds.pop(inst.ra, None)
                        holds[inst.ra] = got
                        rewritten += 1
                        continue
                # Kill facts clobbered by this instruction.
                defs = inst.defs()
                if inst.is_call():
                    # Calls clobber every caller-saved register.
                    for reg in list(holds):
                        if reg in R.CALLER_SAVED:
                            del holds[reg]
                for reg in defs:
                    holds.pop(reg, None)
                if R.GP in defs:
                    holds.clear()       # new gp: all slot facts invalid
                if got is not None:
                    holds[inst.ra] = got
            out_state[id(block)] = holds
    return rewritten


def _got_key(ir) -> tuple[str, int] | None:
    """The (symbol, addend) of a GOT-relocated ldq, if this is one."""
    inst = ir.inst
    if inst.op is not opcodes.LDQ or inst.rb != R.GP:
        return None
    for rel in ir.relocs:
        if rel.type is RelocType.GOT16:
            return (rel.symbol, rel.addend)
    return None


def _register_holding(holds: dict, key: tuple) -> int | None:
    for reg, held in holds.items():
        if held == key:
            return reg
    return None


def optimize_address_calculation(program: IRProgram) -> int:
    """Replace literal-table loads with direct gp-relative address
    computation where the datum is within reach (reference [12]).

    ``ldq rX, %got(sym)(gp)`` loads sym's address from the literal table —
    a memory access.  When sym itself lies within the signed 16-bit window
    around gp, the address can be *computed* instead: ``lda rX,
    disp(gp)``.  Only data-segment symbols qualify: their addresses are
    immutable (ATOM never moves program data), so no relocation needs to
    survive on the rewritten instruction.

    Returns the number of loads rewritten.  Run :func:`optimize_got_loads`
    afterwards if block-local redundancy should also be cleaned.
    """
    with TRACE.span("om.opt.addr_calc", "om") as sp:
        rewritten = _optimize_address_calculation(program)
        sp.add(rewritten=rewritten)
        TRACE.count("om.addr_calcs_rewritten", rewritten)
        return rewritten


def _optimize_address_calculation(program: IRProgram) -> int:
    module = program.module
    gp = module.gp_value
    rewritten = 0
    for proc in program.procs:
        for block in proc.blocks:
            for ir in block.insts:
                key = _got_key(ir)
                if key is None:
                    continue
                symbol, addend = key
                sym = module.symtab.get(symbol)
                if sym is None or not sym.defined or sym.is_abs:
                    continue
                if sym.section in (None, TEXT):
                    continue        # text moves under ATOM; keep the slot
                target = sym.value + addend
                disp = target - gp
                if not -(1 << 15) <= disp < (1 << 15):
                    continue
                ir.inst = ir.inst.copy(op=opcodes.LDA, disp=disp)
                ir.relocs = [r for r in ir.relocs
                             if r.type is not RelocType.GOT16]
                rewritten += 1
    return rewritten


# ---- straight-line peephole (O4 inline bodies) --------------------------------

def _copy_source(inst) -> int | None:
    """src register when ``inst`` is a plain copy (``bis src, zero, dst``
    or ``bis zero, src, dst``), else None."""
    if inst.op is not opcodes.BIS or inst.is_lit:
        return None
    if inst.rb == R.ZERO and inst.ra not in (R.ZERO, inst.rc):
        return inst.ra
    if inst.ra == R.ZERO and inst.rb not in (R.ZERO, inst.rc):
        return inst.rb
    return None


def _rewrite_uses(inst, env: dict[int, int]):
    """Return ``inst`` with used register fields substituted through
    ``env``, or the original instruction when nothing applies."""
    cls = inst.op.inst_class
    changes = {}
    if cls is InstClass.OPERATE:
        if inst.ra in env:
            changes["ra"] = env[inst.ra]
        if not inst.is_lit and inst.rb in env:
            changes["rb"] = env[inst.rb]
    elif cls in (InstClass.LOAD, InstClass.LOAD_ADDRESS):
        if inst.rb in env:
            changes["rb"] = env[inst.rb]
    elif cls is InstClass.STORE:
        if inst.ra in env:
            changes["ra"] = env[inst.ra]
        if inst.rb in env:
            changes["rb"] = env[inst.rb]
    return inst.copy(**changes) if changes else inst


def peephole_straightline(insts: list[IRInst],
                          live_out: frozenset[int] = frozenset()
                          ) -> tuple[list[IRInst], int]:
    """Copy-propagate and dead-code-eliminate a straight-line run.

    Run on O4 inline bodies before their save set is computed: argument
    shuffles (``bis aX, zero, tY``) become direct uses of the source and
    the dead moves they leave behind are dropped, which both shortens the
    spliced sequence and shrinks its clobber set.  Only side-effect-free
    register computes (operate / lda / ldah) are ever removed; stores,
    loads, and control transfers stay put.  Returns the rewritten list
    and the number of instructions removed.
    """
    # Forward copy propagation.
    env: dict[int, int] = {}          # dst -> reg currently holding the value
    for ir in insts:
        ir.inst = _rewrite_uses(ir.inst, env)
        inst = ir.inst
        defs = inst.defs()
        for dst in [d for d, s in env.items() if d in defs or s in defs]:
            del env[dst]
        src = _copy_source(inst)
        if src is not None and inst.rc != R.ZERO:
            env[inst.rc] = src

    # Backward dead-code elimination.
    removable = (InstClass.OPERATE, InstClass.LOAD_ADDRESS)
    live = set(live_out)
    kept: list[IRInst] = []
    removed = 0
    for ir in reversed(insts):
        inst = ir.inst
        defs = inst.defs()
        if inst.op.inst_class in removable and defs \
                and defs.isdisjoint(live):
            removed += 1
            continue
        live -= defs
        live |= inst.uses()
        kept.append(ir)
    kept.reverse()
    TRACE.count("om.peephole_removed", removed)
    return kept, removed


# ---- constant folding / address fusion (O4) -----------------------------------

_MASK64 = (1 << 64) - 1

#: Opcodes the folder can evaluate when every operand is known.
_EVAL = {
    opcodes.ADDQ: lambda a, b: a + b,
    opcodes.SUBQ: lambda a, b: a - b,
    opcodes.MULQ: lambda a, b: a * b,
    opcodes.SLL: lambda a, b: a << (b & 63),
    opcodes.SRL: lambda a, b: a >> (b & 63),
    opcodes.AND: lambda a, b: a & b,
    opcodes.BIS: lambda a, b: a | b,
    opcodes.XOR: lambda a, b: a ^ b,
}

#: Operate opcodes whose rb operand may be folded into the 8-bit literal
#: slot (cmov excluded: it also reads rc).
_LIT_FOLDABLE = frozenset(_EVAL) | {
    opcodes.BIC, opcodes.ORNOT, opcodes.SRA,
    opcodes.CMPEQ, opcodes.CMPLT, opcodes.CMPLE,
    opcodes.CMPULT, opcodes.CMPULE,
}


def _fits16(value: int) -> bool:
    return -(1 << 15) <= value < (1 << 15)


def _signed64(value: int) -> int:
    value &= _MASK64
    return value - (1 << 64) if value >> 63 else value


def constfold_straightline(insts: list[IRInst]) -> int:
    """Forward constant folding over a straight-line run.

    Registers whose exact value is established by the run itself (``lda``/
    ``ldah`` chains over zero, then any :data:`_EVAL` arithmetic over
    known values) are tracked; instructions over known values collapse to
    cheaper forms — a materializing ``lda``, a reg+const ``lda``, or the
    operate literal slot.  ATOM's O4 point specialization uses this to
    melt instrumentation-time constant arguments into the inlined
    analysis body.  Returns the number of instructions rewritten.
    """
    known: dict[int, int] = {}

    def val(reg: int) -> int | None:
        return 0 if reg == R.ZERO else known.get(reg)

    rewritten = 0
    for ir in insts:
        inst = ir.inst
        cls = inst.op.inst_class
        if ir.relocs or ir.snip is not None:
            for reg in inst.defs():
                known.pop(reg, None)
            continue
        if cls is InstClass.LOAD_ADDRESS:
            base = val(inst.rb)
            shift = 16 if inst.op is opcodes.LDAH else 0
            if base is not None:
                known[inst.ra] = (base + (inst.disp << shift)) & _MASK64
            else:
                known.pop(inst.ra, None)
            continue
        if cls is InstClass.OPERATE and inst.op.mnemonic not in (
                "cmoveq", "cmovne"):
            a = val(inst.ra)
            b = inst.lit if inst.is_lit else val(inst.rb)
            out = None
            if a is not None and b is not None and inst.op in _EVAL:
                out = _EVAL[inst.op](a, b) & _MASK64
                signed = _signed64(out)
                if _fits16(signed) and not (
                        inst.op is opcodes.BIS and inst.ra == R.ZERO
                        and inst.is_lit):
                    ir.inst = Instruction(opcodes.LDA, ra=inst.rc,
                                          rb=R.ZERO, disp=signed)
                    rewritten += 1
            elif inst.op is opcodes.ADDQ and b is not None \
                    and _fits16(_signed64(b)):
                ir.inst = Instruction(opcodes.LDA, ra=inst.rc, rb=inst.ra,
                                      disp=_signed64(b))
                rewritten += 1
            elif inst.op is opcodes.ADDQ and a is not None \
                    and not inst.is_lit and _fits16(_signed64(a)):
                ir.inst = Instruction(opcodes.LDA, ra=inst.rc, rb=inst.rb,
                                      disp=_signed64(a))
                rewritten += 1
            elif inst.op is opcodes.SUBQ and b is not None \
                    and _fits16(-_signed64(b)):
                ir.inst = Instruction(opcodes.LDA, ra=inst.rc, rb=inst.ra,
                                      disp=-_signed64(b))
                rewritten += 1
            elif b is not None and 0 <= b <= 255 and not inst.is_lit \
                    and inst.op in _LIT_FOLDABLE:
                ir.inst = inst.copy(is_lit=True, lit=b, rb=R.ZERO)
                rewritten += 1
            if out is not None:
                known[inst.rc] = out
            else:
                known.pop(inst.rc, None)
            known.pop(R.ZERO, None)
            continue
        for reg in inst.defs():
            known.pop(reg, None)
    TRACE.count("om.consts_folded", rewritten)
    return rewritten


def fuse_lda_bases(insts: list[IRInst]) -> int:
    """Fold ``lda rX, d(rB)`` into the displacement of downstream memory
    references based on rX.

    Legal when, before rX is redefined, every use of rX is as the base of
    a memory instruction whose combined displacement still fits 16 bits
    signed, rB is not redefined over the same span, and neither the
    ``lda`` nor any target instruction carries a relocation or a
    save-bracket tag.  The address arithmetic the O4 constant folder
    leaves behind (``counts + 8*n``) disappears into the loads and stores
    themselves.  Each instruction's effects are read once, and re-read
    only for a target whose base a fusion rewrote.  Returns the number of
    ``lda`` instructions fused away.
    """
    effects = [_fusion_effects(ir.inst) for ir in insts]
    fused = 0
    i = 0
    while i < len(insts):
        if _try_fuse(insts, effects, i):
            fused += 1
        else:
            i += 1
    TRACE.count("om.lda_fused", fused)
    return fused


def _fusion_effects(inst) -> tuple[bool, frozenset[int], frozenset[int]]:
    return inst.ends_block(), inst.uses(), inst.defs()


def _try_fuse(insts: list[IRInst], effects: list, i: int) -> bool:
    inst = insts[i].inst
    if inst.op is not opcodes.LDA or insts[i].relocs \
            or insts[i].snip is not None or inst.ra == R.ZERO:
        return False
    rx, rb, d = inst.ra, inst.rb, inst.disp
    targets: list[int] = []
    for j in range(i + 1, len(insts)):
        ends_block, uses, defs = effects[j]
        if ends_block:
            return False
        if rx in uses:
            # A target carrying a relocation (LO16 on the displacement)
            # or a bracket tag must not have its encoded disp rewritten:
            # the relocation would later be applied on top of the fused
            # displacement and corrupt it.
            nxt = insts[j].inst
            if not nxt.is_memory_ref() or nxt.rb != rx \
                    or (nxt.is_store() and nxt.ra == rx) \
                    or insts[j].relocs or insts[j].snip is not None \
                    or not _fits16(d + nxt.disp):
                return False
            targets.append(j)
        if rx in defs:
            break
        if rb != rx and rb in defs:
            # Base changes while rX may still be used later.
            return False
    if not targets:
        return False
    for j in targets:
        nxt = insts[j].inst.copy(rb=rb, disp=insts[j].inst.disp + d)
        insts[j].inst = nxt
        effects[j] = _fusion_effects(nxt)
    del insts[i]
    del effects[i]
    return True


# ---- cross-point save coalescing (O4) ----------------------------------------

def coalesce_snippets(program: IRProgram, max_gap: int = 2) -> int:
    """Merge save/restore brackets of consecutive snippets in a block.

    ATOM's lowerer tags the prologue (``lda sp,-F`` + saves) and epilogue
    (restores + ``lda sp,+F``) of every snippet it generates (the
    ``IRInst.snip`` field).  When one snippet's epilogue is followed —
    across at most ``max_gap`` application instructions — by another
    snippet's prologue with the *identical* frame and save layout, the
    pair cancels: dropping both leaves one save-once/restore-once bracket
    around both payloads.

    Legality of the application instructions caught inside the widened
    bracket (they now run with sp displaced and saved registers still
    holding snippet values):

    * no control transfer, call, or system call;
    * sp neither read nor written (the frame displacement would leak);
    * no read of a bracket-saved register (its application value lives in
      a slot, not the register) and no write to one (the final restore
      would wipe it).

    Registers outside the save set are consistent by construction: a
    snippet's payload only writes registers in its save set, so gap
    instructions observe exactly what they would have between separate
    brackets.  Returns the number of brackets merged.
    """
    with TRACE.span("om.opt.coalesce", "om") as sp:
        merged = sum(_coalesce_block(block, max_gap)
                     for proc in program.procs
                     for block in proc.blocks)
        sp.add(merged=merged)
        TRACE.count("om.brackets_merged", merged)
        return merged


def _gap_legal(ir: IRInst, saved: frozenset[int]) -> bool:
    inst = ir.inst
    if inst.ends_block() or inst.is_call() or inst.is_syscall():
        return False
    uses, defs = inst.uses(), inst.defs()
    if R.SP in uses or R.SP in defs:
        return False
    return uses.isdisjoint(saved) and defs.isdisjoint(saved)


def _coalesce_block(block, max_gap: int) -> int:
    insts = block.insts
    drop: set[int] = set()
    merged = 0
    i = 0
    while i < len(insts):
        tag = insts[i].snip
        if tag is None or tag[1] != "epi":
            i += 1
            continue
        site, _, key = tag
        # The epilogue run of this snippet.
        j = i
        while j < len(insts) and insts[j].snip == tag:
            j += 1
        # At most max_gap legal application instructions in between.
        # key = (frame, stack_args, ((reg, slot), ...))
        saved = frozenset(reg for reg, _ in key[2])
        k = j
        while k < len(insts) and k - j <= max_gap \
                and insts[k].snip is None:
            if not _gap_legal(insts[k], saved):
                break
            k += 1
        nxt = insts[k].snip if k < len(insts) else None
        if k - j > max_gap or nxt is None or nxt[1] != "pro" \
                or nxt[0] == site or nxt[2] != key:
            i = j
            continue
        # Delete this epilogue and the matching prologue run.
        drop.update(range(i, j))
        m = k
        while m < len(insts) and insts[m].snip == nxt:
            drop.add(m)
            m += 1
        merged += 1
        i = m
    if drop:
        block.insts = [ir for n, ir in enumerate(insts) if n not in drop]
    return merged

# ---- O4 point specialization --------------------------------------------------

def convert_got_to_gprel(insts: list[IRInst], module) -> int:
    """Template-time address-calculation optimization for inline bodies.

    Same rewrite as :func:`optimize_address_calculation`, applied to the
    instruction list of an O4 inline template against the *analysis*
    module: ``ldq rX, %got(sym)(gp)`` becomes ``lda rX, (sym-gp)(gp)``
    when sym's data lies within the 16-bit window around the analysis gp.
    The encoded displacement is relocation-free: every analysis data
    segment shifts by one common delta when the unit is rebased (the
    instrumenter verifies this), so sym-gp is invariant.

    GOT16 relocations on loads that stay out of reach are *dropped*, not
    kept: the encoded slot displacement is gp-relative and therefore
    equally invariant, and the literal slot itself is patched through the
    original routine, which remains in the analysis unit.  Returns the
    number of loads rewritten.
    """
    gp = module.gp_value
    rewritten = 0
    for ir in insts:
        key = _got_key(ir)
        if key is None:
            continue
        symbol, addend = key
        sym = module.symtab.get(symbol)
        ir.relocs = [r for r in ir.relocs
                     if r.type is not RelocType.GOT16]
        if sym is None or not sym.defined or sym.is_abs \
                or sym.section in (None, TEXT):
            continue
        disp = sym.value + addend - gp
        if not _fits16(disp):
            continue
        ir.inst = ir.inst.copy(op=opcodes.LDA, disp=disp)
        rewritten += 1
    TRACE.count("om.inline_gprel", rewritten)
    return rewritten


def specialize_point(insts: list[IRInst],
                     live: frozenset[int]) -> list[IRInst]:
    """Specialize one fully inlined snippet to its instrumentation point.

    Run at O4 on points whose every action was inlined (no call, so the
    whole snippet is straight-line and its effects are fully visible):

    1. instrumentation-time constant arguments fold into the spliced
       body (:func:`constfold_straightline`);
    2. leftover address arithmetic folds into memory displacements
       (:func:`fuse_lda_bases`);
    3. computes whose results neither the remaining snippet nor the
       live-out application registers read are dropped;
    4. the save bracket is re-derived from the instructions that
       actually remain — pairs for registers the specialized payload no
       longer touches are deleted, and the frame itself goes when
       nothing references sp.  Bracket tags are re-keyed so the
       cross-point coalescer still sees accurate save sets.

    Memory operations are never added, removed, or reordered, so the
    analysis data the snippet computes is bit-identical to O0-O3.
    """
    constfold_straightline(insts)
    fuse_lda_bases(insts)
    _dce_point(insts, live)
    _shrink_bracket(insts)
    _regsave_bracket(insts, live)
    return insts


def _dce_point(insts: list[IRInst], live: frozenset[int]) -> int:
    removable = (InstClass.OPERATE, InstClass.LOAD_ADDRESS)
    live_now = set(live) | {R.SP, R.GP, R.RA}
    kept: list[IRInst] = []
    removed = 0
    for ir in reversed(insts):
        inst = ir.inst
        defs = inst.defs()
        if ir.snip is None and inst.op.inst_class in removable \
                and defs and defs.isdisjoint(live_now):
            removed += 1
            continue
        live_now -= defs
        live_now |= inst.uses()
        kept.append(ir)
    kept.reverse()
    insts[:] = kept
    TRACE.count("om.point_dce_removed", removed)
    return removed


def _shrink_bracket(insts: list[IRInst]) -> int:
    pro = [n for n, ir in enumerate(insts)
           if ir.snip is not None and ir.snip[1] == "pro"]
    epi = [n for n, ir in enumerate(insts)
           if ir.snip is not None and ir.snip[1] == "epi"]
    if not pro or not epi:
        return 0
    # saves is the bracket's (register, slot displacement) layout.
    frame, stack_args, saves = insts[pro[0]].snip[2]
    used_regs: set[int] = set()
    used_disps: set[int] = set()
    sp_payload = False
    for ir in insts:
        if ir.snip is not None:
            continue
        inst = ir.inst
        touched = inst.uses() | inst.defs()
        used_regs |= touched
        if R.SP in touched:
            sp_payload = True
            if inst.is_memory_ref() \
                    or inst.op.inst_class is InstClass.LOAD_ADDRESS:
                if inst.rb == R.SP:
                    used_disps.add(inst.disp)
    drop: set[int] = set()
    remaining: list[tuple[int, int]] = []
    for reg, disp in saves:
        if reg in used_regs or disp in used_disps:
            # Surviving saves keep their original slots, so the re-key
            # below must carry the (reg, slot) pairs — two shrunk
            # brackets saving the same registers in different slots are
            # not interchangeable.
            remaining.append((reg, disp))
            continue
        for n in pro + epi:
            inst = insts[n].inst
            if inst.ra == reg and inst.rb == R.SP and inst.disp == disp \
                    and inst.op in (opcodes.STQ, opcodes.LDQ):
                drop.add(n)
    if not remaining and not sp_payload and stack_args == 0:
        # Nothing left needs the frame at all.
        for n in (pro[0], epi[-1]):
            inst = insts[n].inst
            if inst.op is opcodes.LDA and inst.ra == R.SP:
                drop.add(n)
        new_key = None
    else:
        new_key = (frame, stack_args, tuple(remaining))
    dropped = len(saves) - len(remaining)
    if drop:
        insts[:] = [ir for n, ir in enumerate(insts) if n not in drop]
    if new_key is not None:
        for ir in insts:
            if ir.snip is not None:
                ir.snip = (ir.snip[0], ir.snip[1], new_key)
    TRACE.count("om.bracket_saves_dropped", dropped)
    return dropped


#: Scratch preference for register-mode save brackets: highest temps
#: first, which the compiler's renamer allocates last.
_REGSAVE_POOL = tuple(reversed(R.RENAME_POOL)) + (R.AT,)


def _regsave_bracket(insts: list[IRInst], live: frozenset[int]) -> int:
    """Save the bracket's registers in dead scratch registers, not memory.

    A shrunk bracket that still saves registers pays five memory-path
    instructions (two sp adjusts, stq per register, ldq per register).
    When the payload never references sp, passes no stack arguments, and
    a distinct application-dead scratch register untouched by the whole
    snippet exists for every saved register, the frame is dropped and
    each pair becomes two register moves::

        stq gp, 0(sp)   ->   bis gp, zero, t11
        ldq gp, 0(sp)   ->   bis t11, zero, gp

    The replacement moves are untagged (``snip=None``): a register-mode
    bracket is not a coalescing candidate, and the cross-point coalescer
    must not mistake it for a stack bracket.  Clobbering the scratch is
    free — it is application-dead by construction.  Returns the number
    of pairs converted.
    """
    pro = [n for n, ir in enumerate(insts)
           if ir.snip is not None and ir.snip[1] == "pro"]
    epi = [n for n, ir in enumerate(insts)
           if ir.snip is not None and ir.snip[1] == "epi"]
    if not pro or not epi:
        return 0
    _frame, stack_args, saves = insts[pro[0]].snip[2]
    save_regs = [reg for reg, _ in saves]
    if stack_args or not save_regs:
        return 0
    for ir in insts:
        if ir.snip is None and R.SP in (ir.inst.uses() | ir.inst.defs()):
            return 0              # slot reads / effaddr(sp) need the frame
    touched: set[int] = set()
    for ir in insts:
        touched |= ir.inst.uses() | ir.inst.defs()
    pool = [r for r in _REGSAVE_POOL
            if r not in live and r not in touched]
    if len(pool) < len(save_regs):
        return 0
    scratch = dict(zip(save_regs, pool))
    out: list[IRInst] = []
    for n, ir in enumerate(insts):
        if ir.snip is None:
            out.append(ir)
            continue
        inst = ir.inst
        if inst.op is opcodes.LDA and inst.ra == R.SP:
            continue              # frame adjust: dropped
        if inst.op is opcodes.STQ and inst.rb == R.SP:
            out.append(IRInst(Instruction(opcodes.BIS, ra=inst.ra,
                                          rb=R.ZERO,
                                          rc=scratch[inst.ra])))
        elif inst.op is opcodes.LDQ and inst.rb == R.SP:
            out.append(IRInst(Instruction(opcodes.BIS,
                                          ra=scratch[inst.ra],
                                          rb=R.ZERO, rc=inst.ra)))
        else:                     # pragma: no cover - bracket is lda/stq/ldq
            out.append(ir)
    insts[:] = out
    TRACE.count("om.regsave_brackets")
    return len(save_regs)
