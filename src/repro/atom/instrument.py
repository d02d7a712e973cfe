"""The ATOM instrumenter: application + instrumentation + analysis -> one
instrumented executable.

This is the paper's second step (Figure 1): the custom tool — OM machinery
combined with the user's instrumentation routines — is applied to the
application, and the analysis routines are linked into the same address
space.  The final layout follows Figure 4:

    text_base:  [instrumented application text][wrappers][veneer]
                [analysis text]
                [analysis lita][analysis data][analysis bss, zero-filled]
                [instrumentation-time data (strings/arrays)]
                ...gap...
    data_base:  [application lita][data][bss]      <- UNMOVED
                [heap ->]
    stack:      below text_base, growing down      <- UNMOVED

Program data, heap and stack addresses are identical to the uninstrumented
run; program text addresses change but the static new->old map is recorded
and every ``InstPC``-style constant was materialized from original
addresses at instrumentation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa import opcodes, registers as R
from ..isa.instruction import Instruction
from ..obs import TRACE
from ..objfile.linker import relocate_unit
from ..objfile.module import Module
from ..objfile.relocs import Relocation, RelocType
from ..objfile.sections import BSS, DATA, LITA, TEXT
from ..objfile.symtab import SymBind, Symbol
from ..om import build_ir, emit
from ..om.dataflow import Liveness
from ..om.opt import coalesce_snippets
from ..om.ir import IRBlock, IRInst, IRProc, IRProgram
from .api import AtomContext, AtomError
from .lowering import ANAL_PREFIX, ATOM_DATA_SYMBOL, AtomData, Lowerer
from .saves import OptLevel, SavePlans, build_wrapper_proc, compute_plans

VENEER_NAME = "__atom_veneer"

#: Text spans under this stay within bsr reach end to end.
_BSR_SPAN_LIMIT = 4 * 1024 * 1024

#: Prepared analysis units, least recently used first.  Preparing a unit
#: is the analysis half of a rewrite: decode it, build its IR, plan the
#: saves (renaming, delayed saves, the O2 in-frame rewrite, the O4
#: inline templates) and emit it.  That half reads only the key: the
#: unit's bytes, the opt level, the sorted (target, arg count) pairs and
#: the noinline set.  So a tool applied to many programs pays it once per
#: process.  An entry holds the emitted module as bytes, before
#: relocation (each rewrite decodes its own copy, because relocation and
#: the layout mutate it), and its save plans.
_prepared: dict[tuple, tuple[bytes, SavePlans]] = {}
_PREPARED_CAP = 64


class LayoutError(AtomError):
    pass


@dataclass
class InstrumentStats:
    #: Distinct instrumentation points: program/proc/block/inst hook sites
    #: with at least one action attached.  A site with several actions is
    #: still one point (each action counts in ``calls_added``).
    points: int = 0
    #: Analysis-procedure calls spliced in, one per action.
    calls_added: int = 0
    snippet_insts: int = 0
    wrappers: int = 0
    save_set_sizes: dict[str, int] = field(default_factory=dict)
    #: O4: calls replaced by spliced analysis bodies.
    inlined_calls: int = 0
    #: O4: adjacent save/restore bracket pairs merged by the coalescer.
    coalesced_brackets: int = 0


@dataclass
class InstrumentResult:
    module: Module
    stats: InstrumentStats
    #: None when the result was rehydrated from the artifact cache —
    #: save plans are an instrumentation-time intermediate and are not
    #: persisted alongside the module bytes and stats.
    plans: SavePlans | None
    #: True when served from the on-disk artifact cache.
    cached: bool = False


def instrument_executable(app_exe: Module, instrument_fn, analysis_unit,
                          *, opt: OptLevel = OptLevel.O1,
                          heap_mode: str = "linked",
                          heap_offset: int = 0x10_0000,
                          tool_args: tuple[str, ...] = (),
                          force_far_calls: bool = False) -> InstrumentResult:
    """Instrument ``app_exe`` with a tool.

    ``instrument_fn(iargc, iargv, atom)`` is the tool's instrumentation
    routine; ``analysis_unit`` is a linked analysis module (see
    :func:`repro.mlc.build_analysis_unit`), its serialized bytes, or MLC
    source text.

    The analysis half of the rewrite is prepared once per process for
    each unit, opt level, set of targets and ``noinline`` set (see
    ``_prepared``); applying one tool to many programs reuses it.

    ``heap_mode`` selects the two-sbrk scheme: "linked" (default — both
    sbrks allocate from one kernel break, each continuing where the other
    stopped) or "partitioned" (the analysis heap starts ``heap_offset``
    bytes past the application heap base; as in the paper, nothing checks
    that the application heap does not grow into it).
    """
    if heap_mode not in ("linked", "partitioned"):
        raise AtomError(f"unknown heap mode {heap_mode!r}")

    # Defensive copies: neither input module is mutated.
    app = Module.from_bytes(app_exe.to_bytes())
    unit = _analysis_bytes(analysis_unit)

    app_ir = build_ir(app)

    # ---- step 1: run the user's instrumentation routines ----------------
    with TRACE.span("instrument.protos", "instrument", opt=opt.name):
        ctx = AtomContext(app_ir)
        argv = ("atom",) + tuple(tool_args)
        instrument_fn(len(argv), argv, ctx)

    stats = InstrumentStats()
    with TRACE.span("instrument.plan", "instrument") as sp:
        targets = _collect_targets(app_ir, ctx, stats)
        sp.add(points=stats.points, calls=stats.calls_added)

    # ---- step 2: save plans + analysis-unit transformation ----------------
    with TRACE.span("instrument.saves", "instrument") as sp:
        no_inline = frozenset(
            name for name in targets if ctx.protos[name].noinline)
        anal_module, plans, hit = _prepare(unit, opt, targets, no_inline)
        for name, plan in plans.plans.items():
            stats.save_set_sizes[name] = len(plan.saves)
        sp.add(procs=len(plans.plans), prepared="hit" if hit else "miss")
        TRACE.count("atom.prepared.hits" if hit else "atom.prepared.misses")

    # ---- decide call strategy (bsr vs jsr to the analysis unit) ------------
    anal_text_size = len(anal_module.section(TEXT).data)
    inline_worst = max((len(p.body) for p in plans.plans.values()
                        if p.mode == "inlined"), default=0)
    worst_app = 4 * app_ir.inst_count() \
        + (64 + 4 * inline_worst) * max(stats.calls_added, 1) + 4096
    in_bsr_range = (worst_app + anal_text_size) < _BSR_SPAN_LIMIT
    if force_far_calls:
        # Testing hook: exercise the paper's "load the procedure value and
        # jsr" path without building a 4 MB application.
        in_bsr_range = False

    # ---- step 3: lower actions into snippets --------------------------------
    lowerer = Lowerer(plans=plans, data=AtomData(),
                      analysis_in_bsr_range=in_bsr_range)
    liveness = {}
    if opt >= OptLevel.O3:
        with TRACE.span("om.liveness", "om") as sp:
            liveness = {p.name: Liveness(p) for p in app_ir.procs}
            sp.add(procs=len(liveness))
    with TRACE.span("instrument.lowering", "instrument") as sp:
        _splice_program_hooks(app_ir, lowerer)
        for proc in app_ir.procs:
            _splice_proc(proc, lowerer,
                         liveness.get(proc.name) if opt >= OptLevel.O3
                         else None, stats)
        stats.inlined_calls = lowerer.inlined_calls
        if opt >= OptLevel.O4:
            stats.coalesced_brackets = coalesce_snippets(app_ir)

        # ---- wrappers and the veneer --------------------------------------
        has_libc_init = anal_module.symtab.get("__libc_init") is not None
        for name in sorted(plans.plans):
            plan = plans.plan(name)
            if plan.mode == "wrapper":
                app_ir.procs.append(build_wrapper_proc(
                    plan, ANAL_PREFIX + name, far=not in_bsr_range))
                stats.wrappers += 1
        app_ir.procs.append(_build_veneer(app_ir, app, lowerer,
                                          has_libc_init, in_bsr_range))
        sp.add(wrappers=stats.wrappers)

    # ---- layout: place the analysis unit in the gap ------------------------------
    with TRACE.span("instrument.layout", "instrument") as sp:
        text_base = app.section(TEXT).vaddr
        app_text_size = 4 * app_ir.inst_count()
        pad = (-app_text_size) % 16
        anal_text_base = text_base + app_text_size + pad
        anal_data_base = anal_text_base + anal_text_size + \
            ((-anal_text_size) % 16)
        data_vaddrs = {name: anal_module.section(name).vaddr
                       for name in (LITA, DATA, BSS)}
        relocate_unit(anal_module, anal_text_base, anal_data_base)
        if any(p.mode == "inlined" for p in plans.plans.values()):
            # Inline templates encode reloc-free gp-relative displacements
            # to analysis data; those are only invariant when every data
            # segment shifted by one common delta.
            deltas = {anal_module.section(name).vaddr - vaddr
                      for name, vaddr in data_vaddrs.items()
                      if anal_module.section(name).size}
            if len(deltas) > 1:
                raise LayoutError(
                    f"analysis data segments rebased by unequal deltas "
                    f"{sorted(deltas)}; O4 inline templates assume a "
                    f"rigid data layout")

        anal_bss = anal_module.section(BSS)
        atomdata_base = (anal_bss.vaddr + anal_bss.size + 15) & ~15
        atom_blob = lowerer.data.blob()
        gap_end = app.section(LITA).vaddr
        if atomdata_base + len(atom_blob) > gap_end:
            raise LayoutError(
                f"analysis unit does not fit in the text-data gap "
                f"(needs through {atomdata_base + len(atom_blob):#x}, "
                f"application data starts at {gap_end:#x})")
        sp.add(app_text=app_text_size, anal_text=anal_text_size,
               atom_data=len(atom_blob))

    # ---- partition the symbol name space and resolve -----------------------------
    for sym in anal_module.symtab:
        if sym.bind is SymBind.GLOBAL and sym.defined:
            injected = Symbol(name=ANAL_PREFIX + sym.name, is_abs=True,
                              value=sym.value, bind=SymBind.GLOBAL)
            if injected.name in app.symtab:
                raise AtomError(
                    f"symbol name collision: {injected.name!r}")
            app.symtab.add(injected)
    app.symtab.add(Symbol(name=ATOM_DATA_SYMBOL, is_abs=True,
                          value=atomdata_base, bind=SymBind.GLOBAL))

    emitted = emit(app_ir, text_base=text_base)
    final = emitted.module
    if final.section(TEXT).vaddr + len(final.section(TEXT).data) \
            != anal_text_base - pad:
        raise LayoutError("instrumented text size mismatch")  # paranoia

    # ---- stitch the final executable ----------------------------------------------
    final.section(TEXT).data += b"\x00" * pad
    final.section(TEXT).data += bytes(anal_module.section(TEXT).data)
    for name in (LITA, DATA):
        sec = anal_module.section(name)
        if sec.size:
            final.extra_segments.append(
                (f"anal{name}", sec.vaddr, bytes(sec.data)))
    if anal_bss.size:
        # Paper: "the uninitialized data of the analysis routines is
        # converted to initialized data by initializing it with zero."
        final.extra_segments.append(
            ("anal.bss", anal_bss.vaddr, b"\x00" * anal_bss.size))
    if atom_blob:
        final.extra_segments.append(
            ("atom.data", atomdata_base, atom_blob))

    final.entry = final.addr_of(VENEER_NAME)
    final.analysis_gp = anal_module.gp_value
    final.meta["atom:anal_text_base"] = anal_text_base
    final.meta["atom:anal_text_size"] = anal_text_size
    final.meta["atom:anal_data_base"] = anal_data_base
    final.meta["atom:atomdata_base"] = atomdata_base
    final.meta["atom:opt_level"] = int(opt)
    final.meta["atom:heap_partitioned"] = int(heap_mode == "partitioned")

    if heap_mode == "partitioned":
        _patch_partitioned_heap(final, anal_module, app, heap_offset)

    stats.snippet_insts = app_ir.inst_count() - _orig_count(app_ir)
    return InstrumentResult(module=final, stats=stats, plans=plans)


def _analysis_bytes(analysis_unit) -> bytes:
    if isinstance(analysis_unit, bytes):
        return analysis_unit
    if isinstance(analysis_unit, Module):
        return analysis_unit.to_bytes()
    from ..mlc import build_analysis_unit
    if isinstance(analysis_unit, str):
        analysis_unit = [analysis_unit]
    return build_analysis_unit(list(analysis_unit)).to_bytes()


def _prepare(unit: bytes, opt: OptLevel, targets: dict[str, int],
             no_inline: frozenset[str]) -> tuple[Module, SavePlans, bool]:
    """The prepared analysis module for this rewrite to lay out, its save
    plans, and whether this process had prepared them already.

    A miss lays out the module it just emitted and stores one encoding of
    it; a hit decodes the stored bytes once.  Either way the caller gets
    plan records of its own (:meth:`SavePlans.copy`)."""
    key = (unit, opt, tuple(sorted(targets.items())), no_inline)
    entry = _prepared.pop(key, None)
    if entry is not None:
        _prepared[key] = entry
        image, plans = entry
        return Module.from_bytes(image), plans.copy(), True
    anal_ir = build_ir(Module.from_bytes(unit))
    plans = compute_plans(anal_ir, targets, opt, no_inline=no_inline)
    module = emit(anal_ir).module
    if len(_prepared) >= _PREPARED_CAP:
        del _prepared[next(iter(_prepared))]
    _prepared[key] = (module.to_bytes(), plans)
    return module, plans.copy(), False


def _orig_count(app_ir: IRProgram) -> int:
    return sum(1 for ir in app_ir.instructions() if ir.orig_pc is not None)


def _collect_targets(app_ir: IRProgram, ctx: AtomContext,
                     stats: InstrumentStats) -> dict[str, int]:
    """Every analysis procedure referenced by any action, with arg counts."""
    targets: dict[str, int] = {}
    seen_sites: set[int] = set()

    def note(actions):
        # One point per distinct non-empty action list: hook sites can
        # alias the same list (and nothing stops a caller noting a site
        # twice), which must not inflate the point count.
        if actions and id(actions) not in seen_sites:
            seen_sites.add(id(actions))
            stats.points += 1
        for action in actions:
            stats.calls_added += 1
            proto = ctx.protos[action.proc_name]
            targets[action.proc_name] = proto.arg_count

    note(app_ir.before)
    note(app_ir.after)
    for proc in app_ir.procs:
        note(proc.before)
        note(proc.after)
        for block in proc.blocks:
            note(block.before)
            note(block.after)
            for ir in block.insts:
                note(ir.before)
                note(ir.after)
    return targets


# ---- splicing --------------------------------------------------------------

def _splice_proc(proc: IRProc, lowerer: Lowerer, liveness, stats) -> None:
    for block in proc.blocks:
        _splice_block(block, lowerer, liveness)
    # Block-level hooks.
    for block in proc.blocks:
        if block.before:
            live = liveness.live_in[block.index] if liveness else None
            block.insts[:0] = lowerer.snippet(block.before, None, live)
    # Procedure-level hooks: before -> entry; after -> before each ret.
    if proc.after:
        for block in proc.blocks:
            for idx in range(len(block.insts) - 1, -1, -1):
                if block.insts[idx].inst.is_ret():
                    # Registers live just before the ret — i.e. live at
                    # procedure exit.  (Indexing against the spliced
                    # instruction list is fine: live_before runs its
                    # backward pass over the block as it now stands, from
                    # the block's live-out set.)
                    live = liveness.live_before(block, idx) \
                        if liveness else None
                    block.insts[idx:idx] = lowerer.snippet(
                        proc.after, None, live)
    if proc.before:
        entry = proc.blocks[0]
        live = liveness.live_in[entry.index] if liveness else None
        entry.insts[:0] = lowerer.snippet(proc.before, None, live)


def _splice_block(block: IRBlock, lowerer: Lowerer, liveness) -> None:
    has_inst_hooks = any(ir.before or ir.after for ir in block.insts)
    has_block_after = bool(block.after)
    if not has_inst_hooks and not has_block_after:
        return
    # One backward pass: lives[i] is live before instruction i,
    # lives[i + 1] live after it.
    lives = liveness.block_lives(block) if liveness else None
    new_insts: list[IRInst] = []
    for idx, ir in enumerate(block.insts):
        if ir.before:
            live = lives[idx] if lives else None
            new_insts.extend(lowerer.snippet(ir.before, ir, live))
        new_insts.append(ir)
        if ir.after:
            live = lives[idx + 1] if lives else None
            new_insts.extend(lowerer.snippet(ir.after, ir, live))
    if has_block_after:
        live = liveness.live_out[block.index] if liveness else None
        snippet = lowerer.snippet(block.after, None, live)
        if new_insts and new_insts[-1].inst.ends_block():
            new_insts[-1:-1] = snippet
        else:
            new_insts.extend(snippet)
    block.insts = new_insts


def _splice_program_hooks(app_ir: IRProgram, lowerer: Lowerer) -> None:
    """ProgramAfter calls run when the application terminates: ATOM hooks
    the single termination point, the _exit procedure."""
    if not app_ir.after:
        return
    exit_proc = app_ir.find_proc("_exit")
    if exit_proc is None:
        raise AtomError(
            "ProgramAfter requires the application to terminate through "
            "_exit, but no _exit procedure was found")
    snippet = lowerer.snippet(app_ir.after, None)
    exit_proc.blocks[0].insts[:0] = snippet
    app_ir.after = []


def _build_veneer(app_ir: IRProgram, app: Module, lowerer: Lowerer,
                  has_libc_init: bool, in_bsr_range: bool) -> IRProc:
    """New entry point: initialize the analysis libc, run ProgramBefore
    calls, then transfer to the original entry."""
    entry_proc = None
    for proc in app_ir.procs:
        if proc.orig_addr == app.entry:
            entry_proc = proc
            break
    if entry_proc is None:
        raise AtomError("cannot locate the application entry procedure")

    insts: list[IRInst] = []

    def mov(src, dst):
        insts.append(IRInst(Instruction(opcodes.BIS, ra=src, rb=R.ZERO,
                                        rc=dst)))

    mov(R.A0, R.S0)
    mov(R.A1, R.S1)
    if has_libc_init:
        target = ANAL_PREFIX + "__libc_init"
        if in_bsr_range:
            insts.append(IRInst(Instruction(opcodes.BSR, ra=R.RA),
                                target=("symbol", target)))
        else:
            hi = IRInst(Instruction(opcodes.LDAH, ra=R.PV, rb=R.ZERO))
            hi.relocs.append(Relocation(TEXT, 0, RelocType.HI16, target, 0))
            lo = IRInst(Instruction(opcodes.LDA, ra=R.PV, rb=R.PV))
            lo.relocs.append(Relocation(TEXT, 0, RelocType.LO16, target, 0))
            insts.extend([hi, lo])
            insts.append(IRInst(Instruction(opcodes.JSR, ra=R.RA,
                                            rb=R.PV)))
    insts.extend(lowerer.snippet(app_ir.before, None))
    app_ir.before = []
    mov(R.S0, R.A0)
    mov(R.S1, R.A1)
    insts.append(IRInst(Instruction(opcodes.BR, ra=R.ZERO),
                        target=("symbol", entry_proc.name)))

    block = IRBlock(index=-2)
    block.insts = insts
    proc = IRProc(name=VENEER_NAME, blocks=[block])
    block.proc = proc
    return proc


def _patch_partitioned_heap(final: Module, anal_module: Module,
                            app: Module, heap_offset: int) -> None:
    """Route the analysis sbrk to the second break pointer.

    Patches the *initial values* of the analysis libc's __sbrk_channel and
    __sbrk2_base globals in the analysis data segment — exactly the
    "ATOM modifies the sbrk in analysis routines" step of the paper.
    """
    channel = anal_module.symtab.get("__sbrk_channel")
    base = anal_module.symtab.get("__sbrk2_base")
    if channel is None or base is None or not channel.defined:
        raise AtomError("partitioned heap requires the analysis unit to "
                        "link the standard sbrk (libc)")
    end_sym = app.symtab.get("__end")
    app_heap_base = (end_sym.value + 7) & ~7 if end_sym else 0
    heap2_base = app_heap_base + heap_offset

    data_sec = anal_module.section(DATA)
    patched = []
    for name, vaddr, blob in final.extra_segments:
        if name == f"anal{DATA}":
            blob = bytearray(blob)
            for sym, value in ((channel, 1), (base, heap2_base)):
                off = sym.value - data_sec.vaddr
                blob[off:off + 8] = value.to_bytes(8, "little")
            blob = bytes(blob)
        patched.append((name, vaddr, blob))
    final.extra_segments = patched
    final.meta["atom:heap2_base"] = heap2_base
