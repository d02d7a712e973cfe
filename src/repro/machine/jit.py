"""The superblock region JIT: a code cache above template fusion.

Template fusion (:mod:`repro.machine.cpu`) compiles each straight-line
run into one Python function, but control still returns to the dispatch
loop after every run — a hot loop pays one dispatch, one bounds check
and one batched ``stats`` update per iteration, and every register
access goes through the shared ``regs`` list.

This module promotes *hot* superblock heads one level further, the way
Pin/DynamoRIO-style binary translators grow traces out of basic blocks.
A superblock head's first dispatch installs its tier-up counter
(:meth:`repro.machine.cpu.Cpu._tier_up`; heads that never run never get
one), which counts the instructions retired through the head.  Once
that work reaches :data:`JIT_WORK` the counter calls
:meth:`JitManager.promote`, which compiles the surrounding control-flow
region (up to :data:`MAX_BLOCKS` blocks reachable from the head) into a
single Python function in which

* register state lives in plain locals (``g9`` for ``r[9]``), loaded on
  entry and written back on every exit — including fault exits, so
  trap-time architectural state is bit-identical to the fused path;
* guest memory operations are inlined with the same validated-page fast
  path the fused templates use;
* control transfers between blocks are a ``w``-label state machine that
  never leaves compiled code, and transfers out of the region are
  guard-checked *side exits* returning the successor index to the
  ordinary dispatch loop.

Block extents replicate the superblock runs exactly (same leader, cap
and terminator-absorption rules), and each block charges its full
cost/count on entry exactly as a fused dispatch would, so ``stats`` —
even mid-fault — cannot distinguish jit on from jit off.

**Fuel contract.**  A region reads ``cpu._jit_limit[0]`` on entry and
guarantees ``stats[1] <= limit`` on return: back-edges check a
precomputed fuel residue and side-exit when it runs out, and the entry
closure falls back to the head's plain fused executor when the residue
would start negative (which also guarantees forward progress).  The
interpreter sets the limit to ``max_insts`` for plain runs and to one
instruction *short* of the next sampling boundary for sampled runs, so
the deterministic PC sampler still lands on exact instruction
boundaries with the JIT engaged.

Compiled regions are installed in a per-Cpu, capacity-bounded code
cache with FIFO eviction (the evicted head resumes on its memoized
fused executor under a fresh counter, so it can re-promote) and
explicit invalidation hooks.  Code objects are memoized by generated
source in a module-level cache shared across Cpus, mirroring the fused
template cache.
"""

from __future__ import annotations

import re

from ..isa import opcodes
from ..isa.opcodes import Format, InstClass
from .cpu import MASK, SIGN, FUSE_CAP, MachineError, _gen_inst, _divq, _remq
from .memory import MemoryFault

#: Instructions a superblock head retires before the region around it
#: is compiled: a quarter of the region tier's measured payback over
#: fusion (compile cost over the time a region saves per executed
#: instruction; EXPERIMENTS.md "Tier-up budgets").  Each
#: :class:`JitManager` copies it into ``work`` at construction.
JIT_WORK = 32768

#: Most blocks one region may span.  Kept modest: label dispatch inside
#: a region is a compare chain, and entry/exit cost scales with the
#: region's register footprint, so huge regions stop paying for
#: themselves (hot loops need few blocks).
MAX_BLOCKS = 24

#: Longest straight-line block (same cap as fusion, so block extents
#: replicate superblock runs exactly).
BLOCK_CAP = FUSE_CAP

#: Default per-Cpu code cache capacity, in resident regions.
DEFAULT_CACHE_CAP = 128

#: Compiled region code objects keyed by generated source, shared
#: across Cpus exactly like ``cpu._SB_CACHE``.
_JIT_CACHE: dict[str, object] = {}
_JIT_CACHE_CAP = 1024

_S = f"{SIGN:#x}"
_M = f"{MASK:#x}"

#: access size -> (page-view getter, misalignment mask, store mask).
#: The typed views index whole elements, so an aligned access can never
#: cross a page and needs no limit check; size 1 uses the raw page
#: bytearray (``fget``) and cannot be misaligned.
_VIEWS = {1: ("fget", 0, "0xFF"),
          2: ("fw", 1, "0xFFFF"),
          4: ("fl", 3, "0xFFFFFFFF"),
          8: ("fq", 7, None)}

#: ``r[<n>]`` register references in fused-template source; regions
#: rewrite them to ``g<n>`` locals.
_RREF = re.compile(r"\br\[(\d+)\]")
_GREF = re.compile(r"\bg(\d+)\b")
_GWRITE = re.compile(r"\bg(\d+)\s*=[^=]")


def _localize(line: str) -> str:
    """Rewrite one fused-template source line for region locals."""
    return _RREF.sub(lambda m: "g" + m.group(1), line) \
                .replace("fast.get(", "fget(")


def _slot_key(inst):
    """The hoisting key of one memory access, or None.

    An access whose base register is stable inside the region (never
    written, or only adjusted by ``lda``-style address arithmetic that
    triggers a slot refresh) has a predictable address: the address
    arithmetic, page-view lookup and element offset can all be computed
    once at region entry.  The access itself still goes through real
    guest memory every time (plain write-through), so aliasing needs no
    analysis at all — only the address computation is hoisted.
    """
    op = inst.op
    if op.format is not Format.MEMORY \
            or op is opcodes.LDA or op is opcodes.LDAH:
        return None
    return (inst.rb, inst.disp, op.access_size)


def _slot_setup(key, names) -> list[str]:
    """Source lines (re)computing one hoisted slot's address, page view
    and element offset from the base register's current value."""
    b, disp, size = key
    av, mvn, ov = names
    view, amask, _ = _VIEWS[size]
    shift = size.bit_length() - 1
    addr = f"{disp & MASK:#x}" if b == 31 else f"(g{b} + {disp}) & {_M}"
    lines = [f"{av} = {addr}"]
    if amask:
        lines.append(f"{mvn} = None if {av} & {amask} "
                     f"else {view}({av} >> 12)")
    else:
        lines.append(f"{mvn} = {view}({av} >> 12)")
    lines.append(f"{ov} = ({av} & 4095) >> {shift}" if shift
                 else f"{ov} = {av} & 4095")
    return lines


def _effective_keys(insts, order, scans, eligible) -> dict[int, tuple]:
    """Map instruction index -> hoistable slot key, with block-local
    LDA alias propagation.

    mlc-generated code addresses locals as ``lda rA, off(sp)`` followed
    by ``ldq/stq d(rA)``, and globals as ``ldah``/``lda`` pairs.  Within
    one straight-line block the alias is exact: while ``rA`` holds
    ``(base + k) & M`` for a stable ``base`` (or an absolute constant),
    an access through ``rA`` is an access to predictable address
    ``base + k + d`` and shares that hoisted slot.  Any other write to
    ``rA`` — or any write to the base itself — kills the alias; block
    boundaries reset the map (no cross-block dataflow needed for
    soundness).
    """
    eff: dict[int, tuple] = {}
    for i in order:
        end, _ = scans[i]
        aliases: dict[int, tuple[int, int]] = {}
        for k in range(i, end):
            inst = insts[k]
            op = inst.op
            if op is opcodes.LDA or op is opcodes.LDAH:
                ra, rb = inst.ra, inst.rb
                add = inst.disp if op is opcodes.LDA else inst.disp << 16
                if ra == 31:
                    continue
                if rb == 31:
                    alias = (31, add)
                elif rb in aliases:
                    b, off = aliases[rb]
                    alias = (b, off + add)
                elif rb in eligible:
                    alias = (rb, add)
                else:
                    alias = None
                aliases = {t: v for t, v in aliases.items()
                           if t != ra and v[0] != ra}
                if alias is not None and alias[0] != ra:
                    aliases[ra] = alias
                continue
            key = _slot_key(inst)
            if key is not None:
                rb, disp, size = key
                if rb in aliases:
                    b, off = aliases[rb]
                    eff[k] = (b, off + disp, size)
                elif rb == 31 or rb in eligible:
                    eff[k] = key
            d = _def_reg(inst)
            if d is not None:
                aliases = {t: v for t, v in aliases.items()
                           if t != d and v[0] != d}
    return eff


def _gen_mem(inst, pc: int, slot) -> tuple[list[str] | None, bool]:
    """Region-tier code for one aligned-capable load/store.

    Hoisted accesses (``slot`` set — see :func:`_slot_key` and
    :func:`_effective_keys`) reduce to one ``is None`` guard plus one
    typed-view index.  Other multi-byte accesses go through the
    pre-cast typed page views (:attr:`Memory._fastq` and friends):
    address arithmetic, one dict probe, one alignment test, one element
    index.  Misaligned or not-yet-validated accesses fall back to
    ``read``/``write`` with ``p`` set, keeping full fault semantics.
    Returns ``(None, False)`` for shapes the fused template already
    handles optimally (byte accesses).
    """
    op = inst.op
    ra, rb, disp = inst.ra, inst.rb, inst.disp
    size = op.access_size
    if slot is not None:
        av, mv_, ov = slot
        load = op.inst_class is InstClass.LOAD
        if load and ra == 31:
            return [f"if {mv_} is None:",
                    f"    p = {pc}",
                    f"    read({av}, {size})"], True
        if load:
            dst = "v" if op.sign_extend else f"g{ra}"
            lines = [f"if {mv_} is None:",
                     f"    p = {pc}",
                     f"    {dst} = read({av}, {size})",
                     "else:",
                     f"    {dst} = {mv_}[{ov}]"]
            if op.sign_extend:
                top = 1 << (8 * size - 1)
                wrap = 1 << (8 * size)
                lines.append(f"g{ra} = (v - {wrap:#x}) & {_M} "
                             f"if v & {top:#x} else v")
            return lines, True
        _, _, smask = _VIEWS[size]
        raw = "0" if ra == 31 else f"g{ra}"
        masked = raw if smask is None or ra == 31 else f"g{ra} & {smask}"
        return [f"if {mv_} is None:",
                f"    p = {pc}",
                f"    write({av}, {raw}, {size})",
                "else:",
                f"    {mv_}[{ov}] = {masked}"], True
    if size == 1 or (op.inst_class is InstClass.LOAD and ra == 31):
        return None, False
    view, amask, smask = _VIEWS[size]
    shift = size.bit_length() - 1
    addr = f"{disp & MASK:#x}" if rb == 31 else f"(g{rb} + {disp}) & {_M}"
    lines = [f"a = {addr}",
             f"mv = {view}(a >> 12)",
             f"if mv is None or a & {amask}:"]
    if op.inst_class is InstClass.LOAD:
        if op.sign_extend:
            top = 1 << (8 * size - 1)
            wrap = 1 << (8 * size)
            lines += [f"    p = {pc}",
                      f"    v = read(a, {size})",
                      "else:",
                      f"    v = mv[(a & 4095) >> {shift}]",
                      f"g{ra} = (v - {wrap:#x}) & {_M} "
                      f"if v & {top:#x} else v"]
        else:
            lines += [f"    p = {pc}",
                      f"    g{ra} = read(a, {size})",
                      "else:",
                      f"    g{ra} = mv[(a & 4095) >> {shift}]"]
        return lines, True
    raw = "0" if ra == 31 else f"g{ra}"
    masked = raw if smask is None or ra == 31 else f"g{ra} & {smask}"
    lines += [f"    p = {pc}",
              f"    write(a, {raw}, {size})",
              "else:",
              f"    mv[(a & 4095) >> {shift}] = {masked}"]
    return lines, True


def _gen_inst_jit(inst, pc: int, slot) -> tuple[list[str], bool]:
    """One instruction's region-tier source: the specialized memory
    templates above when they apply, else the fused template rewritten
    for register locals."""
    op = inst.op
    if op.format is Format.MEMORY and op is not opcodes.LDA \
            and op is not opcodes.LDAH:
        lines, traps = _gen_mem(inst, pc, slot)
        if lines is not None:
            return lines, traps
    gen, traps = _gen_inst(inst, pc)
    return [_localize(line) for line in gen], traps


def _def_reg(inst) -> int | None:
    """The register an instruction writes, at ISA level (31 and pure
    stores return None)."""
    op = inst.op
    fmt = op.format
    if fmt is Format.MEMORY:
        if op.inst_class is InstClass.STORE:
            return None
        return inst.ra if inst.ra != 31 else None
    if fmt is Format.OPERATE:
        return inst.rc if inst.rc != 31 else None
    # Branch/jump linkage (conditional branches leave ra untouched).
    if op.inst_class in (InstClass.UNCOND_BRANCH, InstClass.CALL,
                         InstClass.JUMP):
        return inst.ra if inst.ra != 31 else None
    return None


def _branch_test(mnemonic: str, a: str) -> str:
    return {
        "beq": f"{a} == 0",
        "bne": f"{a} != 0",
        "blt": f"{a} & {_S}",
        "ble": f"{a} == 0 or {a} & {_S}",
        "bgt": f"{a} != 0 and not {a} & {_S}",
        "bge": f"not {a} & {_S}",
        "blbc": f"not {a} & 1",
        "blbs": f"{a} & 1",
    }[mnemonic]


def _scan_block(insts, i: int, starts, leader) -> tuple[int, str]:
    """Extent and terminator kind of the block at index ``i``.

    Returns ``(end, kind)`` where ``[i, end)`` is straight-line code and
    ``kind`` classifies what stopped the scan: ``branch``/``jump`` (a
    terminator at ``end``, absorbed into the block), ``stop`` (syscall
    or halt at ``end``: side-exit *before* it, uncharged), or ``fall``
    (leader, region start, cap, or end of text: fall through to
    ``end``).  Stop conditions mirror :meth:`Cpu.superblock_runs`
    exactly so block charging matches fused dispatch charging.
    """
    n = len(insts)
    j = i
    while j < n and j - i < BLOCK_CAP:
        fmt = insts[j].op.format
        if fmt is not Format.MEMORY and fmt is not Format.OPERATE:
            if fmt is Format.BRANCH:
                return j, "branch"
            if fmt is Format.JUMP:
                return j, "jump"
            return j, "stop"
        if j > i and (leader[j] or j in starts):
            return j, "fall"
        j += 1
    return j, "fall"


def _successors(insts, end: int, kind: str) -> tuple[int, ...]:
    if kind == "fall":
        return (end,)
    if kind == "branch":
        inst = insts[end]
        target = end + 1 + inst.disp
        if inst.op.inst_class is InstClass.UNCOND_BRANCH:
            return (target,)
        if inst.op.inst_class is InstClass.CALL:
            # Direct call: the callee, plus the return point — the
            # callee's ret re-enters through the dynamic label map.
            return (target, end + 1)
        return (target, end + 1)
    return ()


def _loops_from_head(insts, order, starts, leader, label_of) -> bool:
    """True when some back-edge (internal edge to an equal-or-earlier
    label) is reachable from the head along internal edges.  Computed
    jumps (``ret``/``jsr``) count as edges to every in-region call
    return point — the dynamic label-map re-entry the generated code
    performs — so call/return cycles register as loops."""
    succ: list[list[int]] = []
    retlabels: list[int] = []
    jumps: list[int] = []
    for i in order:
        end, kind = _scan_block(insts, i, starts, leader)
        if kind == "jump":
            jumps.append(len(succ))
        elif kind == "branch" \
                and insts[end].op.inst_class is InstClass.CALL:
            ret = label_of.get(end + 1)
            if ret is not None:
                retlabels.append(ret)
        succ.append([label_of[s] for s in _successors(insts, end, kind)
                     if s in label_of])
    for j in jumps:
        succ[j] = succ[j] + retlabels
    seen = {0}
    work = [0]
    while work:
        label = work.pop()
        for nxt in succ[label]:
            if nxt <= label:
                return True
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return False


class Region:
    """One compiled multi-block region resident in the code cache."""

    __slots__ = ("head", "fn", "source", "min_fuel", "lo", "hi")

    def __init__(self, head, fn, source, min_fuel, lo, hi):
        self.head = head
        self.fn = fn
        self.source = source
        self.min_fuel = min_fuel
        #: Text-index range covered, for invalidation overlap tests.
        self.lo = lo
        self.hi = hi


def _region_source(cpu, head: int) -> tuple[str, int, int, int] | None:
    """Generate a region's Python source rooted at superblock ``head``.

    Returns ``(source, min_fuel, lo, hi)``, or None when no back-edge is
    reachable from the head (the caller denies the promotion and keeps
    the plain fused executor).
    """
    insts = cpu._insts
    costs = cpu._costs
    leader = cpu._leader
    base = cpu.text_base
    n = len(insts)

    # Breadth-first block discovery from the head.  Every discovered
    # start is a superblock-run boundary (head, branch target, branch
    # fall-through, or cap split), so the final scan below reproduces
    # fused run extents exactly.
    starts = {head}
    order = [head]
    qi = 0
    while qi < len(order):
        end, kind = _scan_block(insts, order[qi], starts, leader)
        qi += 1
        for succ in _successors(insts, end, kind):
            if 0 <= succ < n and succ not in starts \
                    and len(order) < MAX_BLOCKS:
                starts.add(succ)
                order.append(succ)
    label_of = {idx: lab for lab, idx in enumerate(order)}

    # Deny regions with no back-edge reachable from the head: without an
    # internal loop the region can only replay what fused dispatch
    # already does, minus the entry/writeback overhead.
    if not _loops_from_head(insts, order, starts, leader, label_of):
        return None

    scans = {i: _scan_block(insts, i, starts, leader) for i in order}

    # Where each register is written (at ISA level, including absorbed
    # terminator linkage).  A base register is *stable* — its accesses
    # hoistable — when its only writes are lda/ldah address arithmetic
    # (the sp-adjust idiom): each such write gets slot-refresh lines
    # emitted right after it, so hoisted values always track the base.
    def_sites: dict[int, list[int]] = {}
    for i in order:
        end, kind = scans[i]
        stop = end + (1 if kind in ("branch", "jump") else 0)
        for k in range(i, stop):
            d = _def_reg(insts[k])
            if d is not None:
                def_sites.setdefault(d, []).append(k)
    eligible = {reg for reg in range(31)
                if all(insts[k].op is opcodes.LDA
                       or insts[k].op is opcodes.LDAH
                       for k in def_sites.get(reg, ()))}
    eff = _effective_keys(insts, order, scans, eligible)
    slots: dict[tuple[int, int, int], tuple[str, str, str]] = {}
    for key in eff.values():
        if key not in slots:
            s = len(slots)
            slots[key] = (f"ia{s}", f"im{s}", f"io{s}")
    refresh: dict[int, list] = {}
    for key, names in slots.items():
        if key[0] != 31 and key[0] in def_sites:
            refresh.setdefault(key[0], []).append((key, names))

    binfo = []           # (charge_count, charge_cost, body_lines, term)
    trappable = False
    lo, hi = head, head
    total_count = 0
    for label, i in enumerate(order):
        end, kind = scans[i]
        count = end - i
        cost = sum(costs[i:end])
        lines: list[str] = []
        # Block-local store-to-load forwarding over 8-byte slots: while
        # no store can have touched a slot since its value was last seen
        # in a register local, a re-load of it is a plain copy.  Every
        # store clears the cache (no aliasing analysis needed), and
        # redefining a register drops the entries it backed.
        cache: dict[str, str] = {}
        for k in range(i, end):
            inst = insts[k]
            op = inst.op
            slot = slots.get(eff.get(k))
            d = _def_reg(inst)
            held = None
            if slot is not None and op.access_size == 8 \
                    and op.inst_class is InstClass.LOAD and inst.ra != 31:
                held = cache.get(slot[1])
            if held is not None:
                gen, traps = ([] if held == f"g{inst.ra}"
                              else [f"g{inst.ra} = {held}"]), False
            else:
                gen, traps = _gen_inst_jit(inst, base + 4 * k, slot)
            trappable |= traps
            lines.extend(gen)
            if d is not None:
                dead = f"g{d}"
                for s in [s for s, v in cache.items() if v == dead]:
                    del cache[s]
            if op.format is Format.MEMORY \
                    and op.inst_class is InstClass.STORE:
                cache.clear()
                if slot is not None and op.access_size == 8:
                    cache[slot[1]] = "0" if inst.ra == 31 \
                        else f"g{inst.ra}"
            elif slot is not None and op.access_size == 8 \
                    and op.inst_class is InstClass.LOAD and inst.ra != 31:
                cache[slot[1]] = f"g{inst.ra}"
            if d is not None and d in refresh:
                for rkey, rnames in refresh[d]:
                    lines.extend(_slot_setup(rkey, rnames))
                    cache.pop(rnames[1], None)
        term: tuple
        if kind == "branch":
            inst = insts[end]
            count += 1
            cost += costs[end]
            target = end + 1 + inst.disp
            if inst.op.inst_class in (InstClass.UNCOND_BRANCH,
                                      InstClass.CALL):
                if inst.ra != 31:
                    retaddr = (base + 4 * (end + 1)) & MASK
                    lines.append(f"g{inst.ra} = {retaddr:#x}")
                term = ("goto", target)
            elif target == i:
                a = "0" if inst.ra == 31 else f"g{inst.ra}"
                term = ("selfloop", _branch_test(inst.op.mnemonic, a),
                        end + 1, i)
            else:
                a = "0" if inst.ra == 31 else f"g{inst.ra}"
                term = ("cond", _branch_test(inst.op.mnemonic, a),
                        target, end + 1)
        elif kind == "jump":
            inst = insts[end]
            count += 1
            cost += costs[end]
            trappable = True
            pc = base + 4 * end
            rb = "0" if inst.rb == 31 else f"g{inst.rb}"
            lines.append(f"dest = {rb} & ~3")
            if inst.op.inst_class in (InstClass.CALL, InstClass.JUMP) \
                    and inst.ra != 31:
                lines.append(f"g{inst.ra} = {(pc + 4) & MASK:#x}")
            lines.append(f"o = dest - {base}")
            lines.append("if o < 0:")
            lines.append("    raise MachineError("
                         f"'jump to %#x outside text' % dest, {pc})")
            lines.append("t = o >> 2")
            # Dynamic re-entry: a computed jump landing on an in-region
            # block (the common case: ret to an in-region call site)
            # stays in compiled code.  Fuel-checked like any back-edge —
            # call/return cycles must not outrun the limit.
            lines.append("lab = lmap(t)")
            lines.append("if lab is None or n > F:")
            lines.append("    xi = t")
            lines.append("    break")
            lines.append("w = lab")
            lines.append("continue")
            term = ("jump",)
        elif kind == "fall":
            term = ("goto", end)
        else:             # syscall / halt: side-exit before executing it
            term = ("exit", end)
        binfo.append((count, cost, lines, term))
        total_count += count
        lo = min(lo, i)
        hi = max(hi, end + (kind in ("branch", "jump")))

    # Internal predecessor-edge counts.  A block entered by exactly one
    # forward edge gets spliced inline at that edge — trace layout —
    # instead of a ``w``-dispatch round trip, so the elif chain holds
    # only loop heads, merge points, and dynamic re-entry labels.
    # Back-edge targets and computed-jump landing pads are forced to
    # stay dispatchable (count 2), as is the region entry.
    preds = [0] * len(order)
    preds[0] += 2
    for label, (_, _, _, term) in enumerate(binfo):
        kind = term[0]
        if kind == "goto":
            targets = (term[1],)
        elif kind == "cond":
            targets = (term[2], term[3])
        elif kind == "selfloop":
            targets = (term[2],)
        else:
            targets = ()
        for t in targets:
            tl = label_of.get(t)
            if tl is not None:
                preds[tl] += 1 if tl > label else 2
    for label, i in enumerate(order):
        end, kind = scans[i]
        if kind == "branch" \
                and insts[end].op.inst_class is InstClass.CALL:
            tl = label_of.get(end + 1)
            if tl is not None:
                preds[tl] += 2     # ret re-enters via the label map

    def edge(target: int, src: int) -> list[str]:
        """Transfer-of-control lines for an edge leaving label ``src``:
        single-predecessor forward targets are inlined here, back-edges
        burn fuel then dispatch, everything else dispatches or
        side-exits."""
        tl = label_of.get(target)
        if tl is None:
            return [f"xi = {target}", "break"]
        if tl <= src:
            return ["if n > F:",
                    f"    xi = {target}",
                    "    break",
                    f"w = {tl}",
                    "continue"]
        if preds[tl] == 1:
            return emit(tl)
        return [f"w = {tl}", "continue"]

    def emit(label: int) -> list[str]:
        count, cost, body, term = binfo[label]
        kind = term[0]
        out_: list[str] = []
        if kind == "selfloop":
            # Single-block loop — the hottest shape there is.  Iterate
            # in a private inner loop so the back-edge costs one branch
            # test and one fuel compare, never a dispatch round trip.
            test, fall, start_i = term[1], term[2], term[3]
            out_.append("w = -1")
            out_.append("while 1:")
            out_.append(f"    n += {count}; c += {cost}")
            out_.extend("    " + line for line in body)
            out_.append(f"    if {test}:")
            out_.append("        if n <= F:")
            out_.append("            continue")
            out_.append(f"        xi = {start_i}")
            out_.append("        w = -2")
            out_.append("    break")
            out_.append("if w == -2:")
            out_.append("    break")
            out_.extend(edge(fall, label))
            return out_
        if count:
            out_.append(f"n += {count}; c += {cost}")
        out_.extend(body)
        if kind == "cond":
            out_.append(f"if {term[1]}:")
            out_.extend("    " + line for line in edge(term[2], label))
            out_.append("else:")
            out_.extend("    " + line for line in edge(term[3], label))
        elif kind == "goto":
            out_.extend(edge(term[1], label))
        elif kind == "exit":
            out_.append(f"xi = {term[1]}")
            out_.append("break")
        return out_           # "jump": body already ends in a transfer

    chain = [lab for lab in range(len(order)) if preds[lab] != 1]
    bodies = {lab: emit(lab) for lab in chain}

    # Entry preamble: hoisted address arithmetic and page-view lookups
    # for invariant-base slots.  Nothing here touches guest state, so a
    # later fault still sees bit-identical architectural state.
    preamble: list[str] = []
    for key, names in slots.items():
        preamble.extend(_slot_setup(key, names))

    used: set[int] = set()
    written: set[int] = set()
    for line in preamble:
        used.update(int(m) for m in _GREF.findall(line))
    for lines in bodies.values():
        for line in lines:
            used.update(int(m) for m in _GREF.findall(line))
            written.update(int(m) for m in _GWRITE.findall(line))

    # Only dispatchable labels are valid ``w`` states, so the dynamic
    # re-entry map covers exactly those; a computed jump landing on an
    # inlined block's start side-exits instead.
    lmap = "{" + ", ".join(f"{order[lab]}: {lab}"
                           for lab in chain) + "}.get"
    out = ["def jr(jl=_jl, r=_r, stats=_stats, read=_read, write=_write, "
           "fget=_fget, fb=_fb, div=_div, rem=_rem, "
           f"fq=_fq, fl=_fl, fw=_fw, lmap={lmap}):",
           # Fuel residue: back-edges stop once ``n`` exceeds F, and no
           # forward chain executes any block twice, so the final charge
           # never exceeds F + total_count = jl[0] - stats[1] on entry.
           f"    F = jl[0] - stats[1] - {total_count}"]
    out.extend(f"    g{i} = r[{i}]" for i in sorted(used))
    out.extend("    " + line for line in preamble)
    out.append("    n = 0; c = 0; w = 0; xi = 0; p = 0")
    flush = ["stats[0] += c; stats[1] += n"]
    flush.extend(f"r[{i}] = g{i}" for i in sorted(written))
    loop_indent = "        " if trappable else "    "
    if trappable:
        out.append("    try:")
    out.append(loop_indent + "while True:")
    for pos, lab in enumerate(chain):
        kw = "if" if pos == 0 else "elif"
        out.append(loop_indent + f"    {kw} w == {lab}:")
        out.extend(loop_indent + "        " + line
                   for line in bodies[lab])
    if trappable:
        out.append("    except MemoryFault as exc:")
        out.extend("        " + line for line in flush)
        out.append("        raise MachineError(str(exc), p) from None")
        out.append("    except MachineError as exc:")
        out.extend("        " + line for line in flush)
        out.append("        if exc.pc is not None:")
        out.append("            raise")
        out.append("        raise MachineError(str(exc), p) from None")
    out.extend("    " + line for line in flush)
    out.append("    return xi")
    return "\n".join(out) + "\n", total_count, lo, hi


class JitManager:
    """Region promotion and compilation, and the per-Cpu code cache."""

    def __init__(self, cpu, cache_cap: int = DEFAULT_CACHE_CAP):
        self.cpu = cpu
        self.cache_cap = cache_cap
        #: Retired work at which a head's counter promotes it.
        self.work = JIT_WORK
        self.promoted = 0
        self.compiled = 0
        self.cache_hits = 0
        self.evictions = 0
        self.invalidations = 0
        self.denied = 0
        #: Insertion-ordered: FIFO eviction order.
        self._installed: dict[int, Region] = {}
        #: Memoized fused executors (the counter warm path, the region
        #: entry's low-fuel fallback, and an evicted head's resume).
        self._fused: dict[int, object] = {}

    def _fused_for(self, start: int, end: int, term: int | None):
        fn = self._fused.get(start)
        if fn is None:
            fn = self._fused[start] = self.cpu._fuse(start, end, term)
        return fn

    # ---- promotion and the code cache ------------------------------------

    def promote(self, head: int, fused):
        """Compile and install the region at ``head``; returns the new
        dispatch entry (the plain fused executor when promotion is
        denied — a region with no reachable back-edge keeps fusion-level
        service permanently)."""
        region = self._build(head)
        if region is None:
            self.denied += 1
            return fused
        cap = max(1, self.cache_cap)
        while len(self._installed) >= cap:
            self._evict(next(iter(self._installed)))
            self.evictions += 1
        self._installed[head] = region
        self.promoted += 1
        return self._entry(region, fused)

    def _build(self, head: int) -> Region | None:
        cpu = self.cpu
        generated = _region_source(cpu, head)
        if generated is None:
            return None
        source, min_fuel, lo, hi = generated
        code = _JIT_CACHE.get(source)
        if code is None:
            if len(_JIT_CACHE) >= _JIT_CACHE_CAP:
                _JIT_CACHE.clear()
            code = compile(source,
                           f"<jitregion@{cpu.text_base + 4 * head:#x}>",
                           "exec")
            _JIT_CACHE[source] = code
            self.compiled += 1
        else:
            self.cache_hits += 1
        env = {
            "_jl": cpu._jit_limit,
            "_r": cpu.regs,
            "_stats": cpu.stats,
            "_read": cpu.memory.read_uint,
            "_write": cpu.memory.write_uint,
            "_fget": cpu.memory._fast.get,
            "_fq": cpu.memory._fastq.get,
            "_fl": cpu.memory._fastl.get,
            "_fw": cpu.memory._fastw.get,
            "_fb": int.from_bytes,
            "_div": _divq,
            "_rem": _remq,
            "MemoryFault": MemoryFault,
            "MachineError": MachineError,
        }
        exec(code, env)
        return Region(head, env["jr"], source, min_fuel, lo, hi)

    def _entry(self, region: Region, fused):
        """The installed dispatch closure: run the region when enough
        fuel remains for its worst-case first chain, else fall back to
        the fused executor (which both makes progress and stays within
        the dispatch loop's ``_max_fused`` headroom)."""
        jl = self.cpu._jit_limit
        stats = self.cpu.stats
        fn = region.fn
        need = region.min_fuel

        def entry():
            if jl[0] - stats[1] < need:
                return fused()
            return fn()
        return entry

    # ---- eviction and invalidation ---------------------------------------

    def _evict(self, head: int) -> None:
        del self._installed[head]
        cpu = self.cpu
        end, term = cpu._runs[head]
        cpu._dispatch[head] = cpu._tier_up(head, end, term,
                                           work=cpu.fuse_work)

    def invalidate(self, lo: int = 0, hi: int | None = None) -> int:
        """Drop resident regions overlapping text indices ``[lo, hi)``
        (the hook a self-modifying-code or breakpoint layer would call);
        their heads fall back to fresh tier-up counters on their fused
        executors.  Returns the number of regions dropped."""
        if hi is None:
            hi = len(self.cpu._insts)
        victims = [head for head, region in self._installed.items()
                   if region.lo < hi and region.hi > lo]
        for head in victims:
            self._evict(head)
        self.invalidations += len(victims)
        return len(victims)

    def invalidate_all(self) -> int:
        return self.invalidate()

    # ---- introspection ---------------------------------------------------

    def stats(self) -> dict:
        return {
            "jit_regions": self.promoted,
            "jit_compiled": self.compiled,
            "jit_cache_hits": self.cache_hits,
            "jit_evictions": self.evictions,
            "jit_invalidations": self.invalidations,
            "jit_denied": self.denied,
            "jit_resident": len(self._installed),
        }
