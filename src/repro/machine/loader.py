"""Loading executables and running them: the OSF/1-like process model.

Per the paper's footnote 10: the stack begins at the start of the text
segment and grows toward low memory; the heap starts at the end of
uninitialized data and grows toward high memory.  Keeping both anchors
unchanged is half of ATOM's pristine-address guarantee, so the loader works
purely from segment addresses recorded in the executable — instrumented
and uninstrumented binaries get byte-identical stack and heap placement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..obs import TRACE
from ..objfile.module import Module
from ..objfile.sections import BSS, DATA, LITA, TEXT
from .costmodel import CostModel, DEFAULT
from .cpu import Cpu, MachineError
from .memory import PAGE_SIZE, Memory
from .syscalls import Kernel

DEFAULT_STACK_SIZE = 0x80000      # 512 KB
STACK_GUARD = PAGE_SIZE


@dataclass
class RunResult:
    """Everything observable from one program run."""

    status: int
    stdout: bytes
    stderr: bytes
    files: dict[str, bytes]
    cycles: int
    inst_count: int
    #: Addresses a test may want to compare across runs.
    heap_base: int = 0
    initial_sp: int = 0
    #: Region-JIT cache counters (None when the JIT is off).  Excluded
    #: from equality: cache behaviour is not architectural state.
    jit_stats: dict | None = field(default=None, compare=False)

    def output_text(self) -> str:
        return self.stdout.decode("utf-8", "replace")

    def file_text(self, name: str) -> str:
        return self.files[name].decode("utf-8", "replace")


@dataclass
class Machine:
    """A loaded process, ready to run."""

    module: Module
    stdin: bytes = b""
    args: tuple[str, ...] = ()
    stack_size: int = DEFAULT_STACK_SIZE
    cost_model: CostModel = field(default_factory=lambda: DEFAULT)
    preload_files: dict[str, bytes] = field(default_factory=dict)
    #: Superblock fusion in the interpreter (architecturally invisible;
    #: disable to A/B the per-instruction dispatch loop).
    fuse: bool = True
    #: Region JIT above fusion (also architecturally invisible; disable
    #: to A/B hot-path compilation).  Requires ``fuse``.
    jit: bool = True

    def __post_init__(self) -> None:
        if not self.module.linked:
            raise MachineError("cannot load an unlinked module")
        self.memory = Memory()
        self.kernel = Kernel(self.memory, stdin=self.stdin)
        for name, content in self.preload_files.items():
            self.kernel.files[name] = bytearray(content)
        self._load_segments()
        self.cpu = Cpu(self.memory, self.kernel, self._text_vaddr,
                       self._text_bytes, self.cost_model, fuse=self.fuse,
                       jit=self.jit,
                       cost_streams=self._cost_streams())
        self._setup_stack()

    def _cost_streams(self) -> list[int] | None:
        """Provenance streams for the cost model's same-line discount.

        For ATOM output (``pc_map`` non-empty) original instructions form
        stream 0 and everything ATOM inserted (brackets, glue, splices,
        the analysis unit) forms stream 1, so instrumentation never
        changes what an original instruction costs — the profiler's
        ``orig`` bucket then matches the uninstrumented run exactly.
        Plain executables keep the single-stream behaviour.
        """
        pc_map = self.module.pc_map
        if not pc_map:
            return None
        base = self._text_vaddr
        return [0 if base + 4 * i in pc_map else 1
                for i in range(len(self._text_bytes) // 4)]

    # ---- loading ----------------------------------------------------------

    def _load_segments(self) -> None:
        mod = self.module
        text = mod.section(TEXT)
        self._text_vaddr = text.vaddr
        self._text_bytes = bytes(text.data)
        self.memory.map_region(text.vaddr, len(text.data), "text")
        self.memory.write(text.vaddr, self._text_bytes)

        data_secs = [mod.section(n) for n in (LITA, DATA)]
        for sec in data_secs:
            if sec.size:
                self.memory.map_region(sec.vaddr, sec.size, "data")
                self.memory.write(sec.vaddr, bytes(sec.data))
        bss = mod.section(BSS)
        if bss.size:
            self.memory.map_region(bss.vaddr, bss.size, "bss")

        # Extra segments (ATOM's analysis data in the text-data gap).
        for name, vaddr, blob in mod.extra_segments:
            if blob:
                self.memory.map_region(vaddr, len(blob), name)
                self.memory.write(vaddr, blob)

        # Heap: from __end (page aligned up), grows high.
        end_sym = mod.symtab.get("__end")
        heap_base = end_sym.value if end_sym else bss.vaddr + bss.size
        heap_base = (heap_base + 7) & ~7
        self.heap_base = heap_base
        self.memory.map_region(heap_base, 0, "heap")
        self.kernel.brk = heap_base

        # Stack: below text, grows down.
        stack_top = text.vaddr
        stack_bottom = stack_top - self.stack_size
        if stack_bottom < STACK_GUARD:
            raise MachineError("stack does not fit below the text segment")
        self.memory.map_region(stack_bottom, self.stack_size, "stack")
        self.stack_top = stack_top

    def _setup_stack(self) -> None:
        """Place argc/argv at the top of the stack, OSF/1 style."""
        argv = ("prog",) + tuple(self.args)
        ptrs: list[int] = []
        cursor = self.stack_top
        for arg in argv:
            raw = arg.encode() + b"\x00"
            cursor -= len(raw)
            self.memory.write(cursor, raw)
            ptrs.append(cursor)
        cursor &= ~7
        cursor -= 8 * (len(ptrs) + 1)
        argv_addr = cursor
        for i, p in enumerate(ptrs):
            self.memory.write_uint(argv_addr + 8 * i, p, 8)
        self.memory.write_uint(argv_addr + 8 * len(ptrs), 0, 8)
        cursor &= ~15
        self.initial_sp = cursor
        regs = self.cpu.regs
        regs[30] = cursor                 # sp
        regs[16] = len(argv)              # a0 = argc
        regs[17] = argv_addr              # a1 = argv
        regs[29] = self.module.gp_value   # gp (crt0 re-derives it anyway)
        regs[26] = 0                      # ra sentinel

    # ---- running -----------------------------------------------------------

    def run(self, max_insts: int = 2_000_000_000,
            sampler=None) -> RunResult:
        # Tracing disabled (the common case): one attribute check, then
        # the exact pre-observability path.
        if not TRACE.enabled:
            status = self.cpu.run(self.module.entry, max_insts=max_insts,
                                  sampler=sampler)
            return self._result(status)
        with TRACE.span("machine.run", "interpret", fuse=self.fuse) as sp:
            t0 = time.perf_counter_ns()
            status = self.cpu.run(self.module.entry, max_insts=max_insts,
                                  sampler=sampler)
            wall_ns = time.perf_counter_ns() - t0
            _note_run(self.cpu, status, wall_ns, sp)
        return self._result(status)

    def _result(self, status: int) -> RunResult:
        return RunResult(
            status=status,
            stdout=bytes(self.kernel.stdout),
            stderr=bytes(self.kernel.stderr),
            files={k: bytes(v) for k, v in self.kernel.files.items()},
            cycles=self.cpu.cycles,
            inst_count=self.cpu.inst_count,
            heap_base=self.heap_base,
            initial_sp=self.initial_sp,
            jit_stats=self.cpu.jit_stats(),
        )


def _note_run(cpu: Cpu, status: int, wall_ns: int, sp) -> None:
    """Fold one run's interpreter stats into the ambient trace."""
    insts, cycles = cpu.stats[1], cpu.stats[0]
    sp.add(status=status, insts=insts, cycles=cycles,
           closures_built=cpu.closures_built,
           sb_runs=cpu.sb_runs, sb_compiled=cpu.sb_compiled,
           sb_cache_hits=cpu.sb_cache_hits)
    TRACE.count("machine.runs")
    TRACE.count("machine.insts", insts)
    TRACE.count("machine.cycles", cycles)
    TRACE.count("cpu.closures_built", cpu.closures_built)
    TRACE.count("cpu.superblocks", cpu.sb_runs)
    TRACE.count("cpu.superblocks_compiled", cpu.sb_compiled)
    TRACE.count("cpu.sb_cache_hits", cpu.sb_cache_hits)
    if cpu.jit is not None:
        jstats = cpu.jit.stats()
        sp.add(jit_regions=jstats["jit_regions"],
               jit_compiled=jstats["jit_compiled"],
               jit_cache_hits=jstats["jit_cache_hits"])
        for key in ("jit_regions", "jit_compiled", "jit_cache_hits",
                    "jit_evictions", "jit_denied"):
            TRACE.count(f"cpu.{key}", jstats[key])
    if wall_ns > 0 and insts:
        TRACE.observe("machine.insts_per_sec", insts * 1e9 / wall_ns)


def run_module(module: Module, *, stdin: bytes = b"",
               args: tuple[str, ...] = (),
               cost_model: CostModel | None = None,
               preload_files: dict[str, bytes] | None = None,
               max_insts: int = 2_000_000_000,
               fuse: bool = True, jit: bool = True,
               sampler=None) -> RunResult:
    """Convenience: load and run an executable module in one call.

    With tracing on, the load is a ``machine.load`` span beside the run's
    ``machine.run``, so a trace splits load from execution.
    """
    def load() -> Machine:
        return Machine(module, stdin=stdin, args=args,
                       cost_model=cost_model or DEFAULT,
                       preload_files=preload_files or {},
                       fuse=fuse, jit=jit)
    if not TRACE.enabled:
        machine = load()
    else:
        with TRACE.span("machine.load", "interpret") as sp:
            machine = load()
            sp.add(text_insts=len(machine.cpu._insts))
    return machine.run(max_insts=max_insts, sampler=sampler)
