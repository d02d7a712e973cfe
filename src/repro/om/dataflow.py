"""Data-flow analyses over OM's IR.

These power ATOM's register-save minimization (paper Section 4):

* :func:`modified_registers` — the interprocedural summary "which registers
  may be modified once control reaches procedure P", the information the
  shipped ATOM used to shrink wrapper save sets;
* :func:`direct_writes` — per-procedure writes only, for the delayed-save
  optimization;
* :func:`call_sites_in_loops` — whether any call in P sits in a loop
  (delayed saves are only legal when none does);
* :class:`Liveness` — intra-procedural live-register analysis, the paper's
  "planned" refinement, implemented here as optimization level O3;
* :func:`rename_registers` — per-procedure bijective renaming of pure
  temporaries onto the densest prefix of the pool.
"""

from __future__ import annotations

from ..isa import registers as R
from ..obs import TRACE
from ..objfile.relocs import RelocType
from .ir import IRBlock, IRProc, IRProgram

#: Registers an unknown (indirect) callee may clobber.
ALL_CALLER_SAVED = frozenset(R.CALLER_SAVED)

#: Pure temporaries eligible for renaming: no calling-convention role.
RENAMEABLE = frozenset(R.RENAME_POOL)


def proc_writes(proc: IRProc) -> frozenset[int]:
    """Registers written by the procedure's own instructions."""
    out: set[int] = set()
    for ir in proc.instructions():
        out |= ir.inst.defs()
    return frozenset(out)


def call_graph(program: IRProgram) -> dict[str, set[str | None]]:
    """proc name -> set of callee names (None marks an indirect call)."""
    known = {p.name for p in program.procs}
    out: dict[str, set[str | None]] = {}
    for proc in program.procs:
        callees: set[str | None] = set()
        for ir in proc.instructions():
            if not ir.inst.is_call():
                continue
            if ir.target and ir.target[0] == "symbol" \
                    and ir.target[1] in known:
                callees.add(ir.target[1])
            else:
                callees.add(None)
        out[proc.name] = callees
    return out


def direct_writes(program: IRProgram) -> dict[str, frozenset[int]]:
    """Per-procedure register writes, with indirect calls widened."""
    out = {}
    for proc in program.procs:
        writes = set(proc_writes(proc))
        for ir in proc.instructions():
            if ir.inst.is_call() and (
                    not ir.target or ir.target[0] != "symbol"):
                writes |= ALL_CALLER_SAVED
        out[proc.name] = frozenset(writes)
    return out


def modified_registers(program: IRProgram) -> dict[str, frozenset[int]]:
    """Interprocedural may-modify summary (fixpoint over the call graph)."""
    graph = call_graph(program)
    known = set(graph)
    summary: dict[str, set[int]] = {
        p.name: set(proc_writes(p)) for p in program.procs}
    changed = True
    while changed:
        changed = False
        for name, callees in graph.items():
            acc = summary[name]
            before = len(acc)
            for callee in callees:
                if callee is None or callee not in known:
                    acc |= ALL_CALLER_SAVED
                else:
                    acc |= summary[callee]
            if len(acc) != before:
                changed = True
    return {name: frozenset(regs) for name, regs in summary.items()}


# ---- inlinability (O4) -----------------------------------------------------

#: Fixups whose encodings stay correct when an analysis body is spliced
#: into the application's text: the gp-materialization pair (re-pointed at
#: the absolute ``anal$_gp`` landmark) and literal-table loads (whose
#: gp-relative displacement is invariant under relocation — slot address
#: and gp shift by the same delta).
_INLINABLE_RELOCS = frozenset({RelocType.GPHI16, RelocType.GPLO16,
                               RelocType.GOT16})


def inline_summary(proc: IRProc, *,
                   max_insts: int = 48) -> frozenset[int] | None:
    """Side-effect summary deciding whether calls to ``proc`` may be
    replaced by its body at an instrumentation point (opt level O4).

    Returns the set of registers the body clobbers when the procedure is
    inlinable, else None.  Inlinable means the body is a single
    straight-line block of at most ``max_insts`` instructions ending in a
    plain ``ret`` through ra, and every other instruction

    * performs no control transfer, call, or system call;
    * never reads or writes sp (a frameless leaf) or ra;
    * writes only caller-saved registers and gp, so a save bracket can
      cover everything it touches;
    * carries only relocations from :data:`_INLINABLE_RELOCS`.

    Memory side effects (stores to the analysis data region) are
    permitted: the inlined copy performs them in the same order the
    called routine would, which is what keeps analysis output
    bit-identical across opt levels.
    """
    if len(proc.blocks) != 1:
        return None
    insts = proc.blocks[0].insts
    if not insts or len(insts) > max_insts:
        return None
    ret = insts[-1].inst
    if not ret.is_ret() or ret.rb != R.RA:
        return None
    clobbers: set[int] = set()
    writable = ALL_CALLER_SAVED | {R.GP, R.ZERO}
    for ir in insts[:-1]:
        inst = ir.inst
        if inst.ends_block() or inst.is_call() or inst.is_syscall():
            return None
        touched = inst.defs() | inst.uses()
        if R.SP in touched or R.RA in touched:
            return None
        if not inst.defs() <= writable:
            return None
        if any(rel.type not in _INLINABLE_RELOCS for rel in ir.relocs):
            return None
        clobbers |= inst.defs()
    clobbers.discard(R.ZERO)
    TRACE.count("om.inline_summaries")
    return frozenset(clobbers)


# ---- loops ----------------------------------------------------------------

def blocks_in_loops(proc: IRProc) -> set[int]:
    """Indices (IRBlock.index) of blocks that are part of some cycle.

    Uses Tarjan SCCs: a block is "in a loop" when its SCC has more than one
    node, or it has a self edge.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[IRBlock] = []
    counter = [0]
    result: set[int] = set()

    def strongconnect(block: IRBlock) -> None:
        work = [(block, iter(block.succs))]
        index[block.index] = low[block.index] = counter[0]
        counter[0] += 1
        stack.append(block)
        on_stack.add(block.index)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ.index not in index:
                    index[succ.index] = low[succ.index] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ.index)
                    work.append((succ, iter(succ.succs)))
                    advanced = True
                    break
                if succ.index in on_stack:
                    low[node.index] = min(low[node.index],
                                          index[succ.index])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent.index] = min(low[parent.index],
                                        low[node.index])
            if low[node.index] == index[node.index]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member.index)
                    scc.append(member)
                    if member is node:
                        break
                if len(scc) > 1:
                    result.update(b.index for b in scc)
                elif any(s is node for s in node.succs):
                    result.add(node.index)

    for block in proc.blocks:
        if block.index not in index:
            strongconnect(block)
    return result


def call_sites_in_loops(proc: IRProc) -> bool:
    """True when any call instruction in the procedure sits in a loop."""
    loopy = blocks_in_loops(proc)
    for block in proc.blocks:
        if block.index in loopy and any(i.inst.is_call()
                                        for i in block.insts):
            return True
    return False


# ---- liveness --------------------------------------------------------------

#: Registers assumed live when a procedure returns.
_LIVE_AT_RET = frozenset({R.V0, R.SP, R.GP} | R.CALLEE_SAVED)
#: Registers a (convention-following) call uses.
_CALL_USES = frozenset({R.A0, R.A1, R.A2, R.A3, R.A4, R.A5, R.SP, R.GP,
                        R.PV})


class Liveness:
    """Backward intra-procedural liveness with conventional call effects.

    Each block is summarized once as a (gen, kill) pair, so the fixpoint
    costs one set operation per block visit, and :meth:`block_lives`
    gives the live set before every instruction of a block in one
    backward pass.

    Sound only for convention-following code, which is why the paper ships
    the data-flow-summary approach as the default and leaves liveness as a
    planned refinement (our opt level O3).
    """

    def __init__(self, proc: IRProc):
        self.proc = proc
        self.live_out: dict[int, frozenset[int]] = {}
        self.live_in: dict[int, frozenset[int]] = {}
        self._solve()
        TRACE.count("om.liveness_procs")

    def _solve(self) -> None:
        blocks = self.proc.blocks
        summary = {}
        for block in blocks:
            # live_in = gen | (live_out - kill), composed back to front.
            gen: frozenset[int] = frozenset()
            kill: frozenset[int] = frozenset()
            for ir in reversed(block.insts):
                defs, uses = _effect(ir.inst)
                gen = (gen - defs) | uses
                kill |= defs
            summary[block.index] = (gen, kill)
            exits = not block.succs
            self.live_out[block.index] = _LIVE_AT_RET if exits \
                else frozenset()
            self.live_in[block.index] = frozenset()
        changed = True
        while changed:
            changed = False
            for block in reversed(blocks):
                out: set[int] = set()
                if block.succs:
                    for succ in block.succs:
                        out |= self.live_in[succ.index]
                else:
                    out = set(_LIVE_AT_RET)
                out_f = frozenset(out)
                if out_f != self.live_out[block.index]:
                    self.live_out[block.index] = out_f
                gen, kill = summary[block.index]
                new_in = gen | (out_f - kill)
                if new_in != self.live_in[block.index]:
                    self.live_in[block.index] = new_in
                    changed = True

    def block_lives(self, block: IRBlock) -> list[frozenset[int]]:
        """Registers live before each of ``block.insts``, then live out:
        entry ``i`` is the live set before instruction ``i``, and the
        last entry is ``live_out``."""
        live = self.live_out[block.index]
        lives = [live]
        for ir in reversed(block.insts):
            defs, uses = _effect(ir.inst)
            live = (live - defs) | uses
            lives.append(live)
        lives.reverse()
        return lives

    def live_before(self, block: IRBlock, inst_index: int) -> frozenset[int]:
        """Registers live immediately before block.insts[inst_index]."""
        return self.block_lives(block)[inst_index]

    def live_after(self, block: IRBlock, inst_index: int) -> frozenset[int]:
        """Registers live immediately after block.insts[inst_index]."""
        return self.block_lives(block)[inst_index + 1]


def _effect(inst) -> tuple[frozenset[int], frozenset[int]]:
    """(defs, uses) of one instruction for liveness: a call clobbers every
    caller-saved register and reads the convention's argument set."""
    if inst.is_call():
        return ALL_CALLER_SAVED, _CALL_USES
    return inst.defs(), inst.uses()


# ---- register renaming ----------------------------------------------------------

def rename_registers(proc: IRProc) -> dict[int, int]:
    """Bijectively remap the pure temporaries a procedure touches onto the
    densest prefix of the rename pool; returns the mapping applied.

    Safe because renameable registers carry no calling-convention role and
    the map is applied uniformly to every instruction of the procedure.
    """
    used: set[int] = set()
    for ir in proc.instructions():
        inst = ir.inst
        used |= (inst.defs() | inst.uses()) & RENAMEABLE
    targets = [r for r in R.RENAME_POOL]
    mapping: dict[int, int] = {}
    taken: set[int] = set()
    # Keep registers already in the densest prefix where they are.
    ordered = sorted(used, key=lambda r: R.RENAME_POOL.index(r))
    for reg in ordered:
        for cand in targets:
            if cand not in taken:
                mapping[reg] = cand
                taken.add(cand)
                break
    if all(src == dst for src, dst in mapping.items()):
        return mapping
    for ir in proc.instructions():
        inst = ir.inst
        if inst.ra in mapping:
            inst.ra = mapping[inst.ra]
        if not inst.is_lit and inst.rb in mapping:
            inst.rb = mapping[inst.rb]
        if inst.rc in mapping:
            inst.rc = mapping[inst.rc]
    return mapping
