"""The WRL-64 interpreter core.

The text segment is decoded once at load and dispatched through a table
of per-instruction closures (the machine never self-modifies code), so
the dispatch loop is a tight ``i = code[i]()``.  Each closure charges its
cycle cost, updates registers or memory, and returns the index of the
next instruction.  Closures are built on first execution, not at load:
every slot starts as a stub that builds its instruction's closure,
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

Each instruction's semantics is written once, in :data:`SEMANTICS`: one
entry per opcode, built at import, holding Python statement templates
with named holes (operands, destination, displacement, pc, branch
target, fall-through, link address, text base), the field the
destination is in, and what runs when that is the zero register.  Two
fillers consume the table.  A per-instruction closure comes from a
factory compiled once per instruction *shape* (opcode, literal form,
zero destination) with the holes bound to the factory's free variables,
so building a closure is one call, never a ``compile()``.  A fused
superblock fills the holes with constants (zero-register reads fold to
0) and compiles the run's lines as one function.  The two dispatch
tiers therefore cannot disagree on what an instruction does.

The fused executor is *compiled*: the run's semantics are emitted as
Python source and ``compile()``d into one code object, so straight-line
code pays no per-instruction dispatch, closure call, or stats update at
all — the classic threaded-code-to-template-JIT step.  A ``compile()``
costs far more than the dispatch it saves on one pass, so it is bought
only once the code has run long enough to repay it.  One scan at load
(:meth:`Cpu.superblock_runs`) finds the runs and records them in one
``start -> (end, term)`` table; a head's dispatch slot holds a stub
until the head is first dispatched, which installs the head's one
tier-up counter (:meth:`Cpu._tier_up`).  The counter adds the run's
static length on every entry — the work retired through the head — and
walks the per-instruction closures until that work reaches
:data:`FUSE_WORK`; the next entry compiles the fused executor, which
replaces the counter in the dispatch table.  Code that runs a few times
never pays a compile, and code that never runs pays nothing at all.
Fused dispatch is the machine's top tier; DESIGN.md §8 says why no
multi-block region tier sits above it.

This simulator is the reproduction's stand-in for Alpha silicon.  ATOM
itself uses *no* simulation — the instrumented executable is ordinary
machine code that runs here natively, analysis routines and all.
"""

from __future__ import annotations

import functools
import struct
from types import MethodType
from typing import NamedTuple

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
                 fuse: bool = True, cost_streams=None):
        self.memory = memory
        self.kernel = kernel
        self.text_base = text_base
        self.regs: list[int] = [0] * 32
        #: stats[0] = cycles, stats[1] = instructions executed
        self.stats = [0, 0]
        self.fused = fuse
        #: Fusion bookkeeping the observability layer reads per run:
        #: runs found at decode, fused executors actually compiled, and
        #: compiles served from the shared source cache.  Plain integer
        #: increments — no tracer call ever happens inside this module.
        self.sb_runs = 0
        self.sb_compiled = 0
        self.sb_cache_hits = 0
        #: Per-instruction closures built so far: one per instruction
        #: that has executed outside fused code.
        self.closures_built = 0
        #: Retired work at which a superblock head fuses (see _tier_up).
        self.fuse_work = FUSE_WORK
        self._insts = _decode_text(text)
        #: What every per-instruction closure binds (see _compile).
        self._env = (self.regs, self.stats, memory.read_uint,
                     memory.write_uint, memory._fast, kernel.syscall,
                     text_base)
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
        else:
            self._dispatch, self._max_fused = self._code, 1

    # ---- public API -------------------------------------------------------

    @property
    def cycles(self) -> int:
        return self.stats[0]

    @property
    def inst_count(self) -> int:
        return self.stats[1]

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
            while True:
                limit = next_at if next_at < budget_cap else budget_cap
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
        return runs

    def _materialize(self, index: int) -> int:
        """A stub's body: build instruction ``index``'s closure, patch
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

    def _tier_up(self, start: int, end: int, term: int | None):
        """The dispatch closure of a superblock head on its way up to
        fusion.  ``work`` counts the instructions retired through the
        head: every entry adds the run's static length.

        While ``work`` is under ``fuse_work`` an entry walks the
        per-instruction closures, so code that runs a few times never
        pays a compile.  The first entry after it has reached
        ``fuse_work`` compiles the fused executor, which replaces the
        counter in ``_dispatch``.
        """
        length = (end - start) + (term is not None)
        fuse_at = self.fuse_work
        dispatch = self._dispatch
        step_run = self._step_run
        work = 0

        def counting():
            nonlocal work
            if work < fuse_at:
                work += length
                return step_run(start, end, term)
            fused = dispatch[start] = self._fuse(start, end, term)
            return fused()
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
        instruction's semantics inline (:func:`_fused_lines`) — no
        per-instruction dispatch or call — and returns the successor
        index (the terminator's target or fall-through, or ``end`` for a
        terminator-less run).  Reads of the zero register constant-fold
        to 0 and writes to it are elided (their cycles are still
        charged), exactly matching the per-instruction closures.  A
        memory fault escapes at ``p``, the pc of the access that raised
        it; every other trap is raised located.
        """
        base = self.text_base
        body: list[str] = []
        for k in range(start, end):
            body.extend(_fused_lines(self._insts[k], k, base))
        if term is not None:
            body.extend(_fused_lines(self._insts[term], term, base))
            count = (end - start) + 1
            total_cost = sum(self._costs[start:term + 1])
        else:
            body.append(f"return {end}")
            count = end - start
            total_cost = sum(self._costs[start:end])
        src = (f"def sb(r=_regs, read=_read, write=_write, "
               f"stats=_stats, div=_div, rem=_rem, "
               f"fast=_fast, fb=_fb):\n"
               f"    stats[0] += {total_cost}; stats[1] += {count}\n"
               f"    try:\n"
               + "".join(f"        {line}\n" for line in body)
               + "    except MemoryFault as exc:\n"
                 "        raise MachineError(str(exc), p) from None\n")
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
            "leave": _leave,
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

    # ---- per-instruction closures -------------------------------------------

    def _compile(self, inst: Instruction, index: int, cost: int):
        """Instruction ``index``'s closure, from its shape's factory."""
        opcode = inst.op.opcode
        target = index + 1 + inst.disp
        make = _closure_factory(opcode, inst.is_lit,
                                _zero_dest(SEMANTICS[opcode], inst),
                                target < 0
                                and inst.op.format is Format.BRANCH)
        pc = self.text_base + 4 * index
        return make(self._env, cost, inst.ra, inst.rb, inst.rc, inst.lit,
                    inst.disp, pc, index + 1, target, (pc + 4) & MASK)


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


# ---- the semantics table -----------------------------------------------------

class Semantics(NamedTuple):
    """What one opcode does, as Python statement templates.

    The templates' ``str.format`` holes: ``{a}`` and ``{b}`` read the ra
    and rb operands (``{b}`` is the literal in an operate's literal
    form), ``{d}`` is the destination register, ``{disp}`` the
    displacement, ``{pc}`` the instruction's address, ``{target}`` and
    ``{nxt}`` the branch target's and the fall-through's indices,
    ``{link}`` the return address and ``{base}`` the text base; ``{M}``
    and ``{S}`` are the 64-bit mask and sign bit.  A control transfer
    returns its successor's index itself; a branch whose target lies
    below the text fills ``{target}`` with a call to ``leave``, which
    traps (see :func:`_leave`).  The statements run with the
    machine's state bound to ``r`` (registers), ``stats``, ``read`` /
    ``write`` (checked memory access), ``fast`` (``Memory._fast``),
    ``syscall``, ``fb`` (``int.from_bytes``), ``div`` / ``rem``,
    ``leave`` and ``MachineError``; their own locals are
    ``a o pg v p dest``.  ``p`` is
    set, just before each checked memory access, to the pc a fused
    executor reports a :class:`MemoryFault` at (per-instruction closures
    are located by their dispatch index instead).
    """

    lines: tuple[str, ...]
    #: The field ``{d}`` names ("ra" or "rc"); None when nothing is.
    dest: str | None = None
    #: What runs instead when that field is the zero register: nothing,
    #: for most opcodes; a load keeps its fault check and a branch its
    #: transfer.
    zero: tuple[str, ...] = ()


_M = f"{MASK:#x}"
_S = f"{SIGN:#x}"

_OPERATE = {
    "addq": "{d} = ({a} + {b}) & {M}",
    "subq": "{d} = ({a} - {b}) & {M}",
    "mulq": "{d} = ({a} * {b}) & {M}",
    "umulh": "{d} = ({a} * {b}) >> 64",
    "divq": "{d} = div({a}, {b}, {pc})",
    "remq": "{d} = rem({a}, {b}, {pc})",
    "and": "{d} = {a} & {b}",
    "bis": "{d} = {a} | {b}",
    "xor": "{d} = {a} ^ {b}",
    "bic": "{d} = {a} & ~{b} & {M}",
    "ornot": "{d} = ({a} | ~{b}) & {M}",
    "sll": "{d} = ({a} << ({b} & 63)) & {M}",
    "srl": "{d} = {a} >> ({b} & 63)",
    "sra": "v = {a}; {d} = ((v - 0x10000000000000000) >> ({b} & 63)) & {M}"
           " if v & {S} else v >> ({b} & 63)",
    "cmpeq": "{d} = 1 if {a} == {b} else 0",
    "cmplt": "{d} = 1 if ({a} ^ {S}) < ({b} ^ {S}) else 0",
    "cmple": "{d} = 1 if ({a} ^ {S}) <= ({b} ^ {S}) else 0",
    "cmpult": "{d} = 1 if {a} < {b} else 0",
    "cmpule": "{d} = 1 if {a} <= {b} else 0",
    "cmoveq": "if {a} == 0: {d} = {b}",
    "cmovne": "if {a} != 0: {d} = {b}",
    "sextb": "v = {b}; {d} = ((v & 0xFF) - 0x100) & {M}"
             " if v & 0x80 else v & 0xFF",
    "sextw": "v = {b}; {d} = ((v & 0xFFFF) - 0x10000) & {M}"
             " if v & 0x8000 else v & 0xFFFF",
    "sextl": "v = {b}; {d} = ((v & 0xFFFFFFFF) - 0x100000000) & {M}"
             " if v & 0x80000000 else v & 0xFFFFFFFF",
}

_CONDITIONS = {
    "beq": "{a} == 0",
    "bne": "{a} != 0",
    "blt": "{a} & {S}",
    "ble": "{a} == 0 or {a} & {S}",
    "bgt": "{a} != 0 and not {a} & {S}",
    "bge": "not {a} & {S}",
    "blbc": "not {a} & 1",
    "blbs": "{a} & 1",
}

#: v0 = syscall(v0, (a0, ..., a5), cycles)
_SYSCALL = ("r[0] = syscall(r[0], (r[16], r[17], r[18], r[19], r[20], "
            "r[21]), stats[0]) & {M}")


def _memory(op: opcodes.OpInfo) -> Semantics:
    """Loads and stores inline the fully-mapped-page fast path (see
    ``Memory._fast``): a known-valid allocated page needs no region
    check and no call into Memory.  Page-crossing or not-yet-validated
    accesses go through ``read``/``write``, which keep full fault
    semantics."""
    if op.inst_class is InstClass.LOAD_ADDRESS:
        add = "{disp}" if op is opcodes.LDA else "({disp} << 16)"
        return Semantics(("{d} = ({b} + %s) & {M}" % add,), "ra")
    size = op.access_size
    lim = 4097 - size
    address = "a = ({b} + {disp}) & {M}"
    head = (address, "o = a & 4095", "pg = fast.get(a >> 12)",
            f"if pg is not None and o < {lim}:")
    if op.inst_class is InstClass.STORE:
        if size == 1:
            put = "pg[o] = {a} & 0xFF"
        elif size == 8:
            put = "pg[o:o + 8] = ({a}).to_bytes(8, 'little')"
        else:
            put = (f"pg[o:o + {size}] = ({{a}} & {(1 << 8 * size) - 1:#x})"
                   f".to_bytes({size}, 'little')")
        return Semantics(head + ("    " + put, "else:", "    p = {pc}",
                                 f"    write(a, {{a}}, {size})"))
    fetch = "pg[o]" if size == 1 else f"fb(pg[o:o + {size}], 'little')"
    # Discarded load: only the fault check is architectural.
    check = (address, f"if fast.get(a >> 12) is None or (a & 4095) >= {lim}:",
             "    p = {pc}", f"    read(a, {size})")
    if not op.sign_extend:
        return Semantics(head + ("    {d} = " + fetch, "else:", "    p = {pc}",
                                 f"    {{d}} = read(a, {size})"), "ra", check)
    top, wrap = 1 << (8 * size - 1), 1 << (8 * size)
    return Semantics(head + ("    v = " + fetch, "else:", "    p = {pc}",
                             f"    v = read(a, {size})",
                             f"{{d}} = (v - {wrap:#x}) & {{M}} "
                             f"if v & {top:#x} else v"), "ra", check)


def _semantics(op: opcodes.OpInfo) -> Semantics:
    fmt, cls = op.format, op.inst_class
    if fmt is Format.MEMORY:
        return _memory(op)
    if fmt is Format.OPERATE:
        return Semantics((_OPERATE[op.mnemonic],), "rc")
    if fmt is Format.BRANCH:
        if cls is InstClass.COND_BRANCH:
            return Semantics(("return {target} if %s else {nxt}"
                              % _CONDITIONS[op.mnemonic],))
        return Semantics(("{d} = {link}", "return {target}"), "ra",
                         ("return {target}",))
    if fmt is Format.JUMP:
        # The destination is read before the link is written: ra may be rb.
        head = ("dest = {b} & ~3",)
        tail = ("o = dest - {base}",
                "if o < 0:",
                "    raise MachineError("
                "'jump to %#x outside text' % dest, {pc})",
                "return o >> 2")
        if cls is InstClass.RET:
            return Semantics(head + tail)
        return Semantics(head + ("{d} = {link}",) + tail, "ra", head + tail)
    if op is opcodes.SYS:
        return Semantics((_SYSCALL,))
    return Semantics(("raise MachineError('halt executed', {pc})",))


#: Semantics indexed by opcode number (None for unassigned ones), built
#: at import like :data:`repro.isa.instruction.EFFECTS`.  The only
#: statement of each opcode's semantics: fused superblocks
#: (:func:`_fused_lines`) and per-instruction closures
#: (:func:`_closure_factory`) are both filled in from it.
SEMANTICS: tuple[Semantics | None, ...] = tuple(
    _semantics(opcodes.BY_OPCODE[n]) if n in opcodes.BY_OPCODE else None
    for n in range(64))


def _fill(lines, holes: dict) -> list[str]:
    return [line.format_map(holes) for line in lines]


def _zero_dest(sem: Semantics, inst: Instruction) -> bool:
    return sem.dest is not None \
        and getattr(inst, sem.dest) == registers.ZERO


def _reg(i: int) -> str:
    """Source expression for a register read (zero folds to a constant)."""
    return "0" if i == registers.ZERO else f"r[{i}]"


def _fused_lines(inst: Instruction, index: int, base: int) -> list[str]:
    """Instruction ``index``'s semantics as superblock source: the holes
    filled with constants, so an architectural no-op yields no lines."""
    sem = SEMANTICS[inst.op.opcode]
    pc = base + 4 * index
    zero = _zero_dest(sem, inst)
    target = index + 1 + inst.disp
    holes = {"a": _reg(inst.ra),
             "b": str(inst.lit) if inst.is_lit else _reg(inst.rb),
             "d": f"r[{getattr(inst, sem.dest)}]" if sem.dest else None,
             "disp": inst.disp, "pc": pc,
             "target": target if target >= 0
             else f"leave({base + 4 * target:#x})",
             "nxt": index + 1, "link": f"{(pc + 4) & MASK:#x}",
             "base": base, "M": _M, "S": _S}
    return _fill(sem.zero if zero else sem.lines, holes)


def _closure_source(opcode: int, lit: bool, zero: bool,
                    below: bool = False) -> str:
    """Source of the closure factory of one instruction shape: its
    opcode, literal form, zero destination and, for a branch, whether
    its target lies below the text.  The holes are filled with the
    factory's free variables, so one source serves every instruction of
    the shape."""
    op = opcodes.BY_OPCODE[opcode]
    sem = SEMANTICS[opcode]
    holes = {"a": "r[ra]", "b": "lit" if lit else "r[rb]",
             "d": f"r[{sem.dest}]", "disp": "disp", "pc": "pc",
             "target": "leave(base + 4 * target)" if below else "target",
             "nxt": "nxt", "link": "link",
             "base": "base", "M": _M, "S": _S}
    body = _fill(sem.zero if zero else sem.lines, holes)
    if op is not opcodes.HALT:          # halt traps before it retires
        body.insert(0, "stats[0] += cost; stats[1] += 1")
    if not body[-1].startswith(("return ", "raise ")):
        body.append("return nxt")       # falls through
    return ("def make(env, cost, ra, rb, rc, lit, disp, pc, nxt, target, "
            "link):\n"
            "    r, stats, read, write, fast, syscall, base = env\n"
            "    def run():\n"
            + "".join(f"        {line}\n" for line in body)
            + "    return run\n")


@functools.cache
def _closure_factory(opcode: int, lit: bool, zero: bool,
                     below: bool = False):
    """The compiled closure factory of one instruction shape: compiled
    once per process, on the shape's first use, then called once per
    instruction (a ``compile()`` per instruction would cost some fifty
    times a closure)."""
    namespace = {"fb": int.from_bytes, "div": _divq, "rem": _remq,
                 "leave": _leave, "MachineError": MachineError}
    src = _closure_source(opcode, lit, zero, below)
    mnemonic = opcodes.BY_OPCODE[opcode].mnemonic
    exec(compile(src, f"<{mnemonic}>", "exec"), namespace)
    return namespace["make"]


def _leave(pc: int):
    """A taken branch to ``pc``, below the text: the same trap dispatch
    raises for a target past its end.  A branch target is static, so the
    closure or superblock of a branch that can leave this way is built
    to call this in place of returning the target's index (a negative
    index would wrap to the end of the dispatch table)."""
    raise MachineError("control left the text segment", pc)


def _divq(a: int, b: int, pc: int) -> int:
    if b == 0:
        raise MachineError("integer division by zero", pc)
    sa, sb = _signed(a), _signed(b)
    return (abs(sa) // abs(sb) * (1 if (sa < 0) == (sb < 0) else -1)) & MASK


def _remq(a: int, b: int, pc: int) -> int:
    if b == 0:
        raise MachineError("integer remainder by zero", pc)
    sa, sb = _signed(a), _signed(b)
    return (sa - sb * (abs(sa) // abs(sb) * (1 if (sa < 0) == (sb < 0)
                                             else -1))) & MASK
