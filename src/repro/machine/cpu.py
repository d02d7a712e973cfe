"""The WRL-64 interpreter core.

The text segment is decoded once at load and dispatched through a table
of per-instruction closures (the machine never self-modifies code), so
the dispatch loop is a tight ``i = code[i]()``.  Each closure charges its
cycle cost, updates registers or memory, and returns the index of the
next instruction.  Closures are built on first execution, not at load:
every slot starts as a stub that compiles its instruction's closure,
patches it over itself and runs it.  Load therefore costs one decode
(one :class:`Instruction` per distinct word) and one stub per
instruction, and only code that runs pays for a closure; a short run
executes well under half of its text.

On top of the per-instruction closures the decoder builds *superblocks*:
maximal straight-line runs of non-control-transfer instructions (loads,
stores, operates, address arithmetic) are fused into a single closure that
executes the whole run with one dispatch and a single batched ``stats``
update.  The branch or jump that ends a run is absorbed into the
superblock as its *terminator* (the fused closure computes and returns the
successor index itself), so a tight loop body costs exactly one dispatch
per iteration.  Runs end at every syscall and are split at every static
branch target, so control entering a run's head takes the fused path.  Control can also enter a run mid-way (computed jumps); every
index keeps its per-instruction closure, so such entries simply execute
per-instruction until the next control transfer re-synchronizes them with
a superblock head.  Architectural state (``regs``, ``stats``, ``memory``)
is bit-identical either way.

The fused executor is *compiled*: the run's semantics are emitted as
Python source and ``compile()``d into one code object, so straight-line
code pays no per-instruction dispatch, closure call, or stats update at
all — the classic threaded-code-to-template-JIT step.  A ``compile()``
costs far more than the dispatch it saves on one pass, so each tier is
bought only once the code has run long enough to repay it.  One scan
at load (:meth:`Cpu.superblock_runs`) finds the runs and records them
in one ``start -> (end, term)`` table; a head's dispatch slot holds a
stub until the head is first dispatched, which installs the head's one
tier-up counter (:meth:`Cpu._tier_up`).  The counter adds the run's
static length on every entry — the work retired through the head — and
walks the per-instruction closures until that work reaches
:data:`FUSE_WORK`, then runs the fused executor, and with the region
JIT on asks it to promote the head once the work reaches
:data:`repro.machine.jit.JIT_WORK`.  Code that runs a few times never
pays a compile, and code that never runs pays nothing at all.

Above fusion sits the region JIT (:mod:`repro.machine.jit`, ``jit=``):
superblock heads promoted by their counters are recompiled together
with their successor blocks into one multi-block Python function that
keeps register state in locals and loops entirely inside compiled code,
side-exiting back to this dispatch loop at region boundaries.  It finds
its blocks on the same scan's leader table.  The JIT
honours ``_jit_limit`` (a one-element fuel list set by :meth:`run` and
:meth:`_run_sampled`): a region never pushes ``stats[1]`` past the
current limit, which is how both the instruction budget and the
deterministic sampling boundaries survive multi-block execution.

This simulator is the reproduction's stand-in for Alpha silicon.  ATOM
itself uses *no* simulation — the instrumented executable is ordinary
machine code that runs here natively, analysis routines and all.
"""

from __future__ import annotations

import struct
from types import MethodType

from ..isa import encoding, opcodes, registers
from ..isa.instruction import Instruction
from ..isa.opcodes import Format, InstClass
from .costmodel import CostModel, DEFAULT
from .memory import Memory, MemoryFault
from .syscalls import ExitProgram, Kernel

MASK = (1 << 64) - 1
SIGN = 1 << 63

#: Longest run fused into one superblock.  Bounds how far a single
#: dispatch can advance ``stats``, which in turn bounds how close to the
#: instruction budget the fused path may run (see :meth:`Cpu.run`).
FUSE_CAP = 64

#: Runs shorter than this stay on per-instruction closures: a superblock
#: of one saves nothing.
FUSE_MIN = 2

#: Instructions a superblock head retires on per-instruction closures
#: before its fused executor is compiled: a quarter of the fusion tier's
#: measured payback (compile cost over the time fusion saves per
#: executed instruction; EXPERIMENTS.md "Tier-up budgets").  Each
#: :class:`Cpu` copies it into ``fuse_work`` at construction.
FUSE_WORK = 256

#: Compiled superblock code objects, keyed by generated source.  The
#: source is a pure function of the decoded text, so separate runs of the
#: same executable (common in tests and benchmarking) share one
#: ``compile()`` — the per-Cpu state is bound at ``exec`` time through
#: default arguments.  Cleared wholesale when it grows past the cap.
_SB_CACHE: dict[str, object] = {}
_SB_CACHE_CAP = 4096


class MachineError(Exception):
    """A trap: illegal jump, division by zero, halt, memory fault, ..."""

    def __init__(self, message: str, pc: int | None = None):
        self.pc = pc
        if pc is not None:
            message = f"pc={pc:#x}: {message}"
        super().__init__(message)


class BudgetExhausted(MachineError):
    """The ``max_insts`` instruction budget ran out before the program
    exited.  Distinct from other traps so harnesses can treat a budget
    overrun as a timeout rather than a machine fault."""


def _signed(value: int) -> int:
    return value - (1 << 64) if value & SIGN else value


class Cpu:
    """Decoder + dispatch loop over a fixed text segment."""

    def __init__(self, memory: Memory, kernel: Kernel, text_base: int,
                 text: bytes, cost_model: CostModel = DEFAULT,
                 fuse: bool = True, jit: bool = True,
                 cost_streams=None):
        self.memory = memory
        self.kernel = kernel
        self.text_base = text_base
        self.regs: list[int] = [0] * 32
        #: stats[0] = cycles, stats[1] = instructions executed
        self.stats = [0, 0]
        self.fused = fuse
        #: Region-JIT manager (None when jit or fuse is off).
        self.jit = None
        #: Fuel ceiling for JIT'd regions: a region returns before
        #: stats[1] would exceed ``_jit_limit[0]``.  One-element list so
        #: generated code can share it by reference.
        self._jit_limit = [0]
        #: Fusion bookkeeping the observability layer reads per run:
        #: runs found at decode, fused executors actually compiled, and
        #: compiles served from the shared source cache.  Plain integer
        #: increments — no tracer call ever happens inside this module.
        self.sb_runs = 0
        self.sb_compiled = 0
        self.sb_cache_hits = 0
        #: Per-instruction closures built so far: one per instruction
        #: that has executed outside fused and JIT-compiled code.
        self.closures_built = 0
        #: Retired work at which a superblock head fuses (see _tier_up).
        self.fuse_work = FUSE_WORK
        self._insts = _decode_text(text)
        #: Lazy call/return classification table for shadow-stack sampling.
        self._ctl: bytearray | None = None
        self._costs = cost_model.sequence_costs(self._insts,
                                                cost_streams)
        # Every slot starts as a stub bound to its index; the first call
        # compiles the closure and patches it in (see _materialize).
        materialize = self._materialize
        self._code = [MethodType(materialize, i)
                      for i in range(len(self._insts))]
        if fuse:
            runs = self.superblock_runs()
            self.sb_runs = len(runs)
            #: The one superblock table: head index -> (end, term).
            self._runs = {start: (end, term) for start, end, term in runs}
            self._max_fused = max([(end - start) + (term is not None)
                                   for start, end, term in runs], default=1)
            self._dispatch = list(self._code)
            install = self._install_head
            for start in self._runs:
                self._dispatch[start] = MethodType(install, start)
            if jit:
                from .jit import JitManager
                self.jit = JitManager(self)
        else:
            self._dispatch, self._max_fused = self._code, 1

    # ---- public API -------------------------------------------------------

    @property
    def cycles(self) -> int:
        return self.stats[0]

    @property
    def inst_count(self) -> int:
        return self.stats[1]

    def jit_stats(self) -> dict | None:
        """Region-JIT cache counters for this Cpu (None when jit off)."""
        return self.jit.stats() if self.jit is not None else None

    def run(self, entry: int, max_insts: int = 2_000_000_000,
            sampler=None) -> int:
        """Run from ``entry`` until the program exits; returns exit status.

        ``sampler`` (see :mod:`repro.obs.runtime`) turns on deterministic
        PC sampling: after every ``sampler.interval`` retired instructions
        the sampler observes the instruction that crossed the boundary.
        The unsampled path below is untouched — sampling off costs one
        ``is None`` test per call to :meth:`run`, nothing per instruction.
        """
        if sampler is not None:
            return self._run_sampled(self._index_of(entry), max_insts,
                                     sampler.bind(self))
        index = self._index_of(entry)
        dispatch = self._dispatch
        code = self._code
        stats = self.stats
        # JIT'd regions meter themselves against the budget directly.
        self._jit_limit[0] = max_insts
        # While at least ``_max_fused`` instructions of budget remain, no
        # single dispatch — superblock or not — can push stats[1] past
        # max_insts, so the fast loop needs only one check per dispatch.
        fused_safe = max_insts - self._max_fused
        try:
            while stats[1] <= fused_safe:
                index = dispatch[index]()
            # Budget nearly exhausted: finish per-instruction so the
            # budget is checked *before* each instruction — exactly
            # ``max_insts`` retire, never one more.
            while True:
                if stats[1] >= max_insts:
                    raise BudgetExhausted("instruction budget exhausted",
                                          self.text_base + 4 * index)
                index = code[index]()
        except ExitProgram as exc:
            return exc.status
        except IndexError:
            # Only a dispatch-table lookup can raise this for us; an
            # IndexError out of a handler body (in-bounds ``index``) is a
            # simulator bug and must keep its real traceback.
            if 0 <= index < len(code):
                raise
            raise MachineError("control left the text segment",
                               self.text_base + 4 * index) from None
        except MemoryFault as exc:
            raise MachineError(str(exc), self.text_base + 4 * index) from None

    def _run_sampled(self, index: int, max_insts: int, sampler) -> int:
        """Dispatch loop with deterministic instruction-count sampling.

        Samples fire at exact retired-instruction boundaries: the fused
        fast path only runs while more than ``_max_fused`` instructions
        remain before the next boundary (a superblock advances ``stats[1]``
        by at most ``_max_fused``, so it can never straddle one), and the
        per-instruction loop advances by exactly one, landing precisely on
        the boundary with ``prev`` holding the crossing instruction.  The
        sampled stream is therefore a pure function of (text, entry,
        interval) — identical with fusion on or off.

        When ``sampler.track_calls`` is set the run stays entirely on
        per-instruction closures and feeds call/return transitions to the
        sampler's shadow stack (slower, but exact).
        """
        dispatch = self._dispatch
        code = self._code
        stats = self.stats
        interval = sampler.interval
        if interval < 1:
            raise ValueError(f"sample interval must be >= 1: {interval}")
        track = sampler.track_calls
        ctl = self._call_table() if track else None
        sample = sampler.sample
        max_fused = self._max_fused
        budget_cap = max_insts + 1
        next_at = stats[1] + interval
        prev = index
        try:
            if track:
                enter = sampler.enter
                leave = sampler.leave
                while True:
                    while stats[1] < next_at:
                        if stats[1] >= max_insts:
                            raise BudgetExhausted(
                                "instruction budget exhausted",
                                self.text_base + 4 * index)
                        prev = index
                        index = code[prev]()
                        k = ctl[prev]
                        if k:
                            if k == 1:
                                enter(prev, index)
                            else:
                                leave(index)
                    sample(prev)
                    next_at += interval
            jit_limit = self._jit_limit
            while True:
                limit = next_at if next_at < budget_cap else budget_cap
                # Regions stop strictly short of the boundary (and the
                # budget), so the slow loop below always lands on it.
                jit_limit[0] = limit - 1
                fast_limit = limit - max_fused
                while stats[1] < fast_limit:
                    index = dispatch[index]()
                while stats[1] < next_at:
                    if stats[1] >= max_insts:
                        raise BudgetExhausted("instruction budget exhausted",
                                              self.text_base + 4 * index)
                    prev = index
                    index = code[prev]()
                sample(prev)
                next_at += interval
        except ExitProgram as exc:
            # The exit syscall raises *after* charging stats, bypassing the
            # boundary checks above.  The fused path cannot reach a
            # boundary (it stops _max_fused short), so if one was crossed
            # the crossing instruction is ``prev`` from the slow loop.
            if stats[1] >= next_at:
                sample(prev)
            return exc.status
        except IndexError:
            if 0 <= index < len(code):
                raise
            raise MachineError("control left the text segment",
                               self.text_base + 4 * index) from None
        except MemoryFault as exc:
            raise MachineError(str(exc), self.text_base + 4 * index) from None

    def _call_table(self) -> bytearray:
        """Per-index control class: 1 = call (bsr/jsr), 2 = return."""
        tbl = self._ctl
        if tbl is None:
            tbl = bytearray(len(self._insts))
            for i, inst in enumerate(self._insts):
                klass = inst.op.inst_class
                if klass is InstClass.CALL:
                    tbl[i] = 1
                elif klass is InstClass.RET:
                    tbl[i] = 2
            self._ctl = tbl
        return tbl

    def _index_of(self, addr: int) -> int:
        offset = addr - self.text_base
        if offset % 4 or not 0 <= offset < 4 * len(self._insts):
            raise MachineError(f"bad text address {addr:#x}")
        return offset >> 2

    # ---- superblock fusion -------------------------------------------------

    def superblock_runs(self) -> list[tuple[int, int, int | None]]:
        """``(start, end, term)`` ranges fused into superblocks.

        ``[start, end)`` is a maximal straight-line stretch of fusible
        instructions (memory and operate formats) containing no static
        join point: every control transfer or syscall ends a run, and
        every branch target splits one.  When the instruction at ``end``
        is a branch or jump, it is included as the superblock's
        *terminator* (``term == end``); syscalls and halts stay on their
        per-instruction closures (``term is None``).  Runs longer than
        :data:`FUSE_CAP` are chained as consecutive superblocks.

        The scan's leader table is kept as ``_leader``: the region JIT
        discovers its blocks on the same table, so one scan at load
        serves both tiers.
        """
        insts = self._insts
        n = len(insts)
        fusible = [False] * n
        # leader[i]: control may enter at i from somewhere other than i-1.
        leader = bytearray(n + 1)
        for i, inst in enumerate(insts):
            fmt = inst.op.format
            if fmt is Format.MEMORY or fmt is Format.OPERATE:
                fusible[i] = True
                continue
            leader[i + 1] = 1
            if fmt is Format.BRANCH:
                target = i + 1 + inst.disp
                if 0 <= target <= n:
                    leader[target] = 1
        runs: list[tuple[int, int, int | None]] = []
        i = 0
        while i < n:
            if not fusible[i]:
                i += 1
                continue
            j = i + 1
            while j < n and fusible[j] and not leader[j] \
                    and j - i < FUSE_CAP:
                j += 1
            term = None
            if j < n and j - i < FUSE_CAP and not fusible[j] \
                    and insts[j].op.format in (Format.BRANCH, Format.JUMP):
                term = j
            if (j - i) + (term is not None) >= FUSE_MIN:
                runs.append((i, j, term))
            i = j if term is None else j + 1
        self._leader = leader
        return runs

    def _materialize(self, index: int) -> int:
        """A stub's body: compile instruction ``index``'s closure, patch
        it over the stub in ``_code`` (and in ``_dispatch`` when the same
        stub sits there), then execute it."""
        code = self._code
        fn = self._compile(self._insts[index], index, self._costs[index])
        if self._dispatch[index] is code[index]:
            self._dispatch[index] = fn
        code[index] = fn
        self.closures_built += 1
        return fn()

    def _install_head(self, start: int) -> int:
        """A superblock head's first dispatch: install the head's tier-up
        counter and enter it, so this dispatch is the counter's first
        entry."""
        end, term = self._runs[start]
        handler = self._dispatch[start] = self._tier_up(start, end, term)
        return handler()

    def _tier_up(self, start: int, end: int, term: int | None,
                 work: int = 0):
        """The dispatch closure of a superblock head on its way up the
        tiers.  ``work`` counts the instructions retired through the
        head: every entry adds the run's static length.

        While ``work`` is under ``fuse_work`` an entry walks the
        per-instruction closures, so code that runs a few times never
        pays a compile.  The first entry after it has reached
        ``fuse_work`` compiles the fused executor; with the JIT off that
        executor replaces the counter in ``_dispatch``.  With the JIT
        on, entries run the memoized fused executor until ``work``
        reaches ``jit.work``, and the next entry installs whatever
        :meth:`JitManager.promote` returns.  An evicted region's head
        gets a counter that starts at ``fuse_work``, so it resumes on its
        fused executor instead of walking again.
        """
        length = (end - start) + (term is not None)
        fuse_at = self.fuse_work
        jit = self.jit
        promote_at = jit.work if jit is not None else 0
        dispatch = self._dispatch
        step_run = self._step_run
        fused = None

        def counting():
            nonlocal work, fused
            if work < fuse_at:
                work += length
                return step_run(start, end, term)
            if fused is None:
                if jit is None:
                    fused = dispatch[start] = self._fuse(start, end, term)
                    return fused()
                fused = jit._fused_for(start, end, term)
            if work < promote_at:
                work += length
                return fused()
            handler = dispatch[start] = jit.promote(start, fused)
            return handler()
        return counting

    def _step_run(self, start: int, end: int, term: int | None) -> int:
        """Execute run ``[start, end)`` (+ terminator) on the ordinary
        per-instruction closures: the cold path of a head's tier-up
        counter."""
        code = self._code
        i = start
        try:
            while i < end:
                i = code[i]()
        except MemoryFault as exc:
            raise MachineError(str(exc),
                               self.text_base + 4 * i) from None
        return code[term]() if term is not None else i

    def _fuse(self, start: int, end: int, term: int | None):
        """Compile insts [start, end) (+ terminator) into one function.

        The generated source charges the whole superblock's cost and
        count with one batched ``stats`` update, then executes every
        instruction's semantics inline — no per-instruction dispatch or
        call — and returns the successor index (the terminator's target
        or fall-through, or ``end`` for a terminator-less run).  Reads of
        the zero register constant-fold to 0 and writes to it are elided
        (their cycles are still charged), exactly matching the
        per-instruction closures.  ``p`` tracks the pc of the trappable
        instruction being executed so faults escape with a precise
        location.
        """
        base = self.text_base
        body: list[str] = []
        trappable = False
        for k in range(start, end):
            lines, traps = _gen_inst(self._insts[k], base + 4 * k)
            trappable |= traps
            body.extend(lines)
        if term is not None:
            body.extend(_gen_term(self._insts[term], term, base))
            count = (end - start) + 1
            total_cost = sum(self._costs[start:term + 1])
        else:
            body.append(f"return {end}")
            count = end - start
            total_cost = sum(self._costs[start:end])
        head = (f"def sb(r=_regs, read=_read, write=_write, "
                f"stats=_stats, div=_div, rem=_rem, "
                f"fast=_fast, fb=_fb):\n"
                f"    stats[0] += {total_cost}; stats[1] += {count}\n")
        if trappable:
            src = head
            src += f"    p = {base + 4 * start}\n"
            src += "    try:\n"
            src += "".join(f"        {line}\n" for line in body)
            src += ("    except MemoryFault as exc:\n"
                    "        raise MachineError(str(exc), p) from None\n"
                    "    except MachineError as exc:\n"
                    "        if exc.pc is not None:\n"
                    "            raise\n"
                    "        raise MachineError(str(exc), p) from None\n")
        else:
            src = head + "".join(f"    {line}\n" for line in body)
        env = {
            "_regs": self.regs,
            "_read": self.memory.read_uint,
            "_write": self.memory.write_uint,
            # The generated fast path shares Memory's validated-page map
            # directly (same trust domain as the read_uint/write_uint
            # fast path — see memory.py).
            "_fast": self.memory._fast,
            "_fb": int.from_bytes,
            "_stats": self.stats,
            "_div": _divq,
            "_rem": _remq,
            "MemoryFault": MemoryFault,
            "MachineError": MachineError,
        }
        self.sb_compiled += 1
        code = _SB_CACHE.get(src)
        if code is None:
            if len(_SB_CACHE) >= _SB_CACHE_CAP:
                _SB_CACHE.clear()
            code = compile(src, f"<superblock@{base + 4 * start:#x}>",
                           "exec")
            _SB_CACHE[src] = code
        else:
            self.sb_cache_hits += 1
        exec(code, env)
        return env["sb"]

    # ---- per-instruction compilation ------------------------------------------

    def _compile(self, inst: Instruction, index: int, cost: int):
        op = inst.op
        regs = self.regs
        stats = self.stats
        nxt = index + 1
        pc_addr = self.text_base + 4 * index

        if op.format is Format.MEMORY:
            return self._compile_memory(inst, nxt, cost)
        if op.format is Format.BRANCH:
            return self._compile_branch(inst, index, nxt, cost)
        if op.format is Format.JUMP:
            return self._compile_jump(inst, nxt, cost, pc_addr)
        if op.format is Format.OPERATE:
            return self._compile_operate(inst, nxt, cost, pc_addr)
        if op is opcodes.SYS:
            kernel = self.kernel

            def do_sys():
                stats[0] += cost
                stats[1] += 1
                result = kernel.syscall(
                    regs[0],
                    (regs[16], regs[17], regs[18], regs[19], regs[20],
                     regs[21]),
                    stats[0])
                regs[0] = result & MASK
                return nxt
            return do_sys

        def do_halt():
            raise MachineError("halt executed", pc_addr)
        return do_halt

    def _compile_memory(self, inst: Instruction, nxt: int, cost: int):
        regs, stats, mem = self.regs, self.stats, self.memory
        op, ra, rb, disp = inst.op, inst.ra, inst.rb, inst.disp
        if op is opcodes.LDA or op is opcodes.LDAH:
            add = disp if op is opcodes.LDA else (disp << 16)
            if ra == 31:
                def do_nop():
                    stats[0] += cost
                    stats[1] += 1
                    return nxt
                return do_nop

            def do_lda():
                stats[0] += cost
                stats[1] += 1
                regs[ra] = (regs[rb] + add) & MASK
                return nxt
            return do_lda

        size = op.access_size
        read_uint = mem.read_uint
        write_uint = mem.write_uint
        if op.inst_class is InstClass.LOAD:
            sign = op.sign_extend
            top = 1 << (8 * size - 1)
            wrap = 1 << (8 * size)

            def do_load():
                stats[0] += cost
                stats[1] += 1
                value = read_uint((regs[rb] + disp) & MASK, size)
                if sign and value & top:
                    value -= wrap
                if ra != 31:
                    regs[ra] = value & MASK
                return nxt
            return do_load

        def do_store():
            stats[0] += cost
            stats[1] += 1
            write_uint((regs[rb] + disp) & MASK, regs[ra], size)
            return nxt
        return do_store

    def _compile_branch(self, inst: Instruction, index: int, nxt: int,
                        cost: int):
        regs, stats = self.regs, self.stats
        op, ra = inst.op, inst.ra
        target = index + 1 + inst.disp
        retaddr = (self.text_base + 4 * (index + 1)) & MASK

        if op.inst_class in (InstClass.UNCOND_BRANCH, InstClass.CALL):
            def do_br():
                stats[0] += cost
                stats[1] += 1
                if ra != 31:
                    regs[ra] = retaddr
                return target
            return do_br

        test = _BRANCH_TESTS[op.mnemonic]

        def do_bcc():
            stats[0] += cost
            stats[1] += 1
            return target if test(regs[ra]) else nxt
        return do_bcc

    def _compile_jump(self, inst: Instruction, nxt: int, cost: int,
                      pc_addr: int):
        regs, stats = self.regs, self.stats
        ra, rb = inst.ra, inst.rb
        base = self.text_base
        retaddr = (pc_addr + 4) & MASK
        is_link = inst.op.inst_class in (InstClass.CALL, InstClass.JUMP)

        def do_jump():
            stats[0] += cost
            stats[1] += 1
            dest = regs[rb] & ~3
            if is_link and ra != 31:
                regs[ra] = retaddr
            offset = dest - base
            if offset < 0:
                raise MachineError(f"jump to {dest:#x} outside text", pc_addr)
            return offset >> 2
        return do_jump

    def _compile_operate(self, inst: Instruction, nxt: int, cost: int,
                         pc_addr: int):
        regs, stats = self.regs, self.stats
        op, ra, rc = inst.op, inst.ra, inst.rc
        fn = _ALU[op.mnemonic]
        can_trap = op.mnemonic in ("divq", "remq")
        if inst.is_lit:
            lit = inst.lit
            if can_trap:
                def do_trap_lit():
                    stats[0] += cost
                    stats[1] += 1
                    if rc != 31:
                        try:
                            regs[rc] = fn(regs[ra], lit, regs[rc])
                        except MachineError as exc:
                            raise MachineError(str(exc), pc_addr) from None
                    return nxt
                return do_trap_lit

            def do_op_lit():
                stats[0] += cost
                stats[1] += 1
                if rc != 31:
                    regs[rc] = fn(regs[ra], lit, regs[rc])
                return nxt
            return do_op_lit
        rb = inst.rb
        if can_trap:
            def do_trap_reg():
                stats[0] += cost
                stats[1] += 1
                if rc != 31:
                    try:
                        regs[rc] = fn(regs[ra], regs[rb], regs[rc])
                    except MachineError as exc:
                        raise MachineError(str(exc), pc_addr) from None
                return nxt
            return do_trap_reg

        def do_op_reg():
            stats[0] += cost
            stats[1] += 1
            if rc != 31:
                regs[rc] = fn(regs[ra], regs[rb], regs[rc])
            return nxt
        return do_op_reg


def _decode_text(text: bytes) -> list[Instruction]:
    """Decode a text segment, sharing one :class:`Instruction` between
    all indices that hold the same word.

    Only a small share of a text's words are distinct (the same spill,
    call and address-arithmetic shapes recur throughout), so the memo
    saves most of decode's allocations.  It is private to one load and
    bounded by that text's distinct words: OM and ATOM rewrite decoded
    instructions in place, so :func:`encoding.decode` itself must keep
    returning a fresh object per call.  The machine only reads its
    instructions.  An illegal opcode anywhere in the text still fails
    the load.
    """
    if len(text) % encoding.INST_SIZE:
        raise encoding.EncodingError(
            "text length is not a multiple of 4 bytes")
    memo: dict[int, Instruction] = {}
    insts: list[Instruction] = []
    for word in struct.unpack(f"<{len(text) // 4}I", text):
        inst = memo.get(word)
        if inst is None:
            inst = memo[word] = encoding.decode(word)
        insts.append(inst)
    return insts


# ---- superblock source generation ------------------------------------------

_M = f"{MASK:#x}"
_S = f"{SIGN:#x}"


def _reg(i: int) -> str:
    """Source expression for a register read (zero folds to a constant)."""
    return "0" if i == 31 else f"r[{i}]"


def _gen_inst(inst: Instruction, pc: int) -> tuple[list[str], bool]:
    """Python source lines executing one fusible instruction's semantics.

    Returns ``(lines, trappable)``; an architectural no-op yields no lines
    (the superblock's batched stats update still charges it).  Trappable
    instructions set the local ``p`` to their pc first, so the enclosing
    handler reports faults precisely.
    """
    op = inst.op
    if op.format is Format.MEMORY:
        ra, rb, disp = inst.ra, inst.rb, inst.disp
        if op is opcodes.LDA or op is opcodes.LDAH:
            add = disp if op is opcodes.LDA else (disp << 16)
            if ra == 31:
                return [], False
            if rb == 31:
                return [f"r[{ra}] = {add & MASK:#x}"], False
            return [f"r[{ra}] = (r[{rb}] + {add}) & {_M}"], False
        size = op.access_size
        addr = f"{disp & MASK:#x}" if rb == 31 \
            else f"(r[{rb}] + {disp}) & {_M}"
        # Loads and stores inline the fully-mapped-page fast path (see
        # Memory._fast): a known-valid allocated page needs no region
        # check and no call into Memory at all.  Page-crossing or
        # not-yet-validated accesses fall back to read()/write(), which
        # keep full fault semantics; ``p`` is set only on that slow path
        # since the fast path cannot fault.
        lim = 4097 - size
        head = [f"a = {addr}",
                "o = a & 4095",
                "pg = fast.get(a >> 12)",
                f"if pg is not None and o < {lim}:"]
        if op.inst_class is InstClass.LOAD:
            if ra == 31:
                # Discarded load: only the fault check is architectural.
                return [f"a = {addr}",
                        f"if fast.get(a >> 12) is None "
                        f"or (a & 4095) >= {lim}:",
                        f"    p = {pc}",
                        f"    read(a, {size})"], True
            fetch = "pg[o]" if size == 1 \
                else f"fb(pg[o:o + {size}], 'little')"
            if op.sign_extend:
                top = 1 << (8 * size - 1)
                wrap = 1 << (8 * size)
                return head + [
                    f"    v = {fetch}",
                    "else:",
                    f"    p = {pc}",
                    f"    v = read(a, {size})",
                    f"r[{ra}] = (v - {wrap:#x}) & {_M} "
                    f"if v & {top:#x} else v"], True
            return head + [
                f"    r[{ra}] = {fetch}",
                "else:",
                f"    p = {pc}",
                f"    r[{ra}] = read(a, {size})"], True
        if ra == 31:
            store = f"pg[o] = 0" if size == 1 \
                else f"pg[o:o + {size}] = {bytes(size)!r}"
        elif size == 1:
            store = f"pg[o] = r[{ra}] & 0xFF"
        elif size == 8:
            store = f"pg[o:o + 8] = r[{ra}].to_bytes(8, 'little')"
        else:
            mask = (1 << (8 * size)) - 1
            store = (f"pg[o:o + {size}] = "
                     f"(r[{ra}] & {mask:#x}).to_bytes({size}, 'little')")
        return head + [
            f"    {store}",
            "else:",
            f"    p = {pc}",
            f"    write(a, {_reg(ra)}, {size})"], True

    # Operate format.
    rc = inst.rc
    if rc == 31:
        # The per-instruction closure never evaluates the ALU function
        # when rc is the zero register, so neither do we (a divq into
        # zero does not trap).
        return [], False
    mn = op.mnemonic
    a = _reg(inst.ra)
    b = str(inst.lit) if inst.is_lit else _reg(inst.rb)
    c = f"r[{rc}]"
    if mn == "addq":
        return [f"{c} = ({a} + {b}) & {_M}"], False
    if mn == "subq":
        return [f"{c} = ({a} - {b}) & {_M}"], False
    if mn == "mulq":
        return [f"{c} = ({a} * {b}) & {_M}"], False
    if mn == "umulh":
        return [f"{c} = ({a} * {b}) >> 64"], False
    if mn == "and":
        return [f"{c} = {a} & {b}"], False
    if mn == "bis":
        return [f"{c} = {a} | {b}"], False
    if mn == "xor":
        return [f"{c} = {a} ^ {b}"], False
    if mn == "bic":
        return [f"{c} = {a} & ~{b} & {_M}"], False
    if mn == "ornot":
        return [f"{c} = ({a} | ~{b}) & {_M}"], False
    if mn == "sll":
        sh = str(inst.lit & 63) if inst.is_lit else f"({b} & 63)"
        return [f"{c} = ({a} << {sh}) & {_M}"], False
    if mn == "srl":
        sh = str(inst.lit & 63) if inst.is_lit else f"({b} & 63)"
        return [f"{c} = {a} >> {sh}"], False
    if mn == "sra":
        sh = str(inst.lit & 63) if inst.is_lit else f"s"
        lines = [] if inst.is_lit else [f"s = {b} & 63"]
        lines += [f"v = {a}",
                  f"{c} = ((v - {(1 << 64):#x}) >> {sh}) & {_M} "
                  f"if v & {_S} else v >> {sh}"]
        return lines, False
    if mn == "cmpeq":
        return [f"{c} = 1 if {a} == {b} else 0"], False
    if mn == "cmplt":
        return [f"{c} = 1 if ({a} ^ {_S}) < ({b} ^ {_S}) else 0"], False
    if mn == "cmple":
        return [f"{c} = 1 if ({a} ^ {_S}) <= ({b} ^ {_S}) else 0"], False
    if mn == "cmpult":
        return [f"{c} = 1 if {a} < {b} else 0"], False
    if mn == "cmpule":
        return [f"{c} = 1 if {a} <= {b} else 0"], False
    if mn == "cmoveq":
        return [f"if {a} == 0: {c} = {b}"], False
    if mn == "cmovne":
        return [f"if {a} != 0: {c} = {b}"], False
    if mn == "sextb":
        return [f"v = {b}",
                f"{c} = ((v & 0xFF) - 0x100) & {_M} "
                f"if v & 0x80 else v & 0xFF"], False
    if mn == "sextw":
        return [f"v = {b}",
                f"{c} = ((v & 0xFFFF) - 0x10000) & {_M} "
                f"if v & 0x8000 else v & 0xFFFF"], False
    if mn == "sextl":
        return [f"v = {b}",
                f"{c} = ((v & 0xFFFFFFFF) - 0x100000000) & {_M} "
                f"if v & 0x80000000 else v & 0xFFFFFFFF"], False
    if mn == "divq":
        return [f"p = {pc}", f"{c} = div({a}, {b}, 0)"], True
    if mn == "remq":
        return [f"p = {pc}", f"{c} = rem({a}, {b}, 0)"], True
    # Unknown operate: fall back to the shared ALU table via div-style
    # call would lose cmov-old-value semantics; keep it strict instead.
    raise AssertionError(f"no superblock template for {mn}")


def _gen_term(inst: Instruction, index: int, base: int) -> list[str]:
    """Source lines for a superblock's terminating control transfer.

    Mirrors :meth:`Cpu._compile_branch` / :meth:`Cpu._compile_jump`: the
    generated code writes the link register when appropriate and returns
    the successor index (taken target, fall-through, or computed jump
    destination).
    """
    op = inst.op
    nxt = index + 1
    if op.format is Format.BRANCH:
        target = index + 1 + inst.disp
        if op.inst_class in (InstClass.UNCOND_BRANCH, InstClass.CALL):
            lines = []
            if inst.ra != 31:
                retaddr = (base + 4 * nxt) & MASK
                lines.append(f"r[{inst.ra}] = {retaddr:#x}")
            lines.append(f"return {target}")
            return lines
        a = _reg(inst.ra)
        test = {
            "beq": f"{a} == 0",
            "bne": f"{a} != 0",
            "blt": f"{a} & {_S}",
            "ble": f"{a} == 0 or {a} & {_S}",
            "bgt": f"{a} != 0 and not {a} & {_S}",
            "bge": f"not {a} & {_S}",
            "blbc": f"not {a} & 1",
            "blbs": f"{a} & 1",
        }[op.mnemonic]
        return [f"return {target} if {test} else {nxt}"]

    # Jump format: computed destination, optional link.
    pc = base + 4 * index
    lines = [f"dest = {_reg(inst.rb)} & ~3"]
    if op.inst_class in (InstClass.CALL, InstClass.JUMP) and inst.ra != 31:
        lines.append(f"r[{inst.ra}] = {(pc + 4) & MASK:#x}")
    lines.append(f"o = dest - {base}")
    lines.append("if o < 0:")
    lines.append(f"    raise MachineError('jump to %#x outside text' % dest, "
                 f"{pc})")
    lines.append("return o >> 2")
    return lines


_BRANCH_TESTS = {
    "beq": lambda v: v == 0,
    "bne": lambda v: v != 0,
    "blt": lambda v: bool(v & SIGN),
    "ble": lambda v: v == 0 or bool(v & SIGN),
    "bgt": lambda v: v != 0 and not v & SIGN,
    "bge": lambda v: not v & SIGN,
    "blbc": lambda v: not v & 1,
    "blbs": lambda v: bool(v & 1),
}


def _divq(a: int, b: int, old: int) -> int:
    if b == 0:
        raise MachineError("integer division by zero")
    sa, sb = _signed(a), _signed(b)
    return (abs(sa) // abs(sb) * (1 if (sa < 0) == (sb < 0) else -1)) & MASK


def _remq(a: int, b: int, old: int) -> int:
    if b == 0:
        raise MachineError("integer remainder by zero")
    sa, sb = _signed(a), _signed(b)
    return (sa - sb * (abs(sa) // abs(sb) * (1 if (sa < 0) == (sb < 0)
                                             else -1))) & MASK


_ALU = {
    "addq": lambda a, b, c: (a + b) & MASK,
    "subq": lambda a, b, c: (a - b) & MASK,
    "mulq": lambda a, b, c: (a * b) & MASK,
    "divq": _divq,
    "remq": _remq,
    "and": lambda a, b, c: a & b,
    "bis": lambda a, b, c: a | b,
    "xor": lambda a, b, c: a ^ b,
    "bic": lambda a, b, c: a & ~b & MASK,
    "ornot": lambda a, b, c: (a | ~b) & MASK,
    "sll": lambda a, b, c: (a << (b & 63)) & MASK,
    "srl": lambda a, b, c: a >> (b & 63),
    "sra": lambda a, b, c: (_signed(a) >> (b & 63)) & MASK,
    "cmpeq": lambda a, b, c: 1 if a == b else 0,
    "cmplt": lambda a, b, c: 1 if _signed(a) < _signed(b) else 0,
    "cmple": lambda a, b, c: 1 if _signed(a) <= _signed(b) else 0,
    "cmpult": lambda a, b, c: 1 if a < b else 0,
    "cmpule": lambda a, b, c: 1 if a <= b else 0,
    "cmoveq": lambda a, b, c: b if a == 0 else c,
    "cmovne": lambda a, b, c: b if a != 0 else c,
    "sextb": lambda a, b, c: (b & 0xFF) - 0x100 & MASK
        if b & 0x80 else b & 0xFF,
    "sextw": lambda a, b, c: ((b & 0xFFFF) - 0x10000) & MASK
        if b & 0x8000 else b & 0xFFFF,
    "sextl": lambda a, b, c: ((b & 0xFFFFFFFF) - 0x100000000) & MASK
        if b & 0x80000000 else b & 0xFFFFFFFF,
    "umulh": lambda a, b, c: (a * b) >> 64,
}
