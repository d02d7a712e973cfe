"""Lazy machine load: only code that runs pays for a closure.

``Cpu(...)`` decodes the whole text but builds nothing executable: every
``_code`` slot is a stub that compiles its instruction's closure on first
execution, and every superblock head's ``_dispatch`` slot is a stub that
installs the head's tier-up counter on first dispatch.  These tests pin
down that nothing is built at load, that what gets built is exactly what
executes, and that building it late changes no architectural state and
no fusion counter: each lazy run is compared with the same machine
forced into the old eager shape.  The tier-up budget is lowered (the
``early_tiers`` fixture) so the short loops here reach the fused tier.
"""

from types import MethodType

import pytest

from repro.atom import OptLevel
from repro.eval import apply_tool
from repro.isa import encoding, opcodes
from repro.isa.asm import assemble
from repro.isa.encoding import EncodingError
from repro.isa.instruction import Instruction
from repro.machine import cpu as cpu_mod
from repro.machine.cpu import BudgetExhausted
from repro.machine.loader import Machine
from repro.objfile.linker import link
from repro.obs.runtime import PcSampler
from repro.tools import get_tool
from repro.workloads import build_workload

pytestmark = pytest.mark.usefixtures("early_tiers")

#: Dispatch modes: fused, and the plain per-instruction loop.
MODES = (True, False)
#: Loop iterations: far past fusion under the lowered budget.
HOT = 128


def build(body: str, tail: str = ""):
    src = f"""
        .text
        .globl __start
__start:
        ldgp
{body}
        mov  t9, a0
        li   v0, 1
        sys
{tail}
"""
    return link([assemble(src, "t.s")])


def machine_state(machine: Machine):
    pages = {no: bytes(page)
             for no, page in machine.memory._pages.items() if any(page)}
    return (list(machine.cpu.regs), list(machine.cpu.stats), pages)


def is_stub(cpu, fn) -> bool:
    return isinstance(fn, MethodType) \
        and fn.__func__ in (cpu._materialize, cpu._install_head)


def built_indices(cpu) -> set[int]:
    return {i for i, fn in enumerate(cpu._code) if not is_stub(cpu, fn)}


def make_eager(machine: Machine) -> Machine:
    """Force a freshly loaded machine into the shape load used to build:
    every closure compiled, every head's tier-up counter installed."""
    cpu = machine.cpu
    for i, inst in enumerate(cpu._insts):
        fn = cpu._compile(inst, i, cpu._costs[i])
        if cpu._dispatch[i] is cpu._code[i]:
            cpu._dispatch[i] = fn
        cpu._code[i] = fn
    if cpu.fused:
        for start, (end, term) in cpu._runs.items():
            cpu._dispatch[start] = cpu._tier_up(start, end, term)
    return machine


def outcome(machine: Machine, **run_kw):
    """Everything a run leaves behind, counters included.  The shared
    code-object cache starts empty, so compile-vs-hit counts compare
    across machines too."""
    cpu_mod._SB_CACHE.clear()
    cpu = machine.cpu
    try:
        result = machine.run(**run_kw)
        ran = (result.status, result.stdout, result.cycles,
               result.inst_count)
    except Exception as exc:             # faults are outcomes too
        ran = (type(exc).__name__, str(exc), getattr(exc, "pc", None))
    return (ran, machine_state(machine), cpu.sb_runs, cpu.sb_compiled,
            cpu.sb_cache_hits)


def assert_lazy_matches_eager(module, modes=MODES, **run_kw):
    """Lazy == eager in every mode, and the modes agree on
    architectural state."""
    states = {}
    for fuse in modes:
        lazy = outcome(Machine(module, fuse=fuse), **run_kw)
        eager = outcome(make_eager(Machine(module, fuse=fuse)), **run_kw)
        assert lazy == eager, f"lazy load diverged (fuse={fuse})"
        states[fuse] = lazy[:2]
    first = next(iter(states.values()))
    assert all(state == first for state in states.values())


@pytest.fixture(scope="module")
def instrumented():
    """A prof-instrumented executable: plenty of text a short run never
    reaches (analysis routines, library code, the unexercised paths)."""
    app = build_workload("quick")
    return apply_tool(app, get_tool("prof"), opt=OptLevel.O1,
                      cache=None).module


# ---- nothing is built at load ----------------------------------------------

@pytest.mark.parametrize("fuse", MODES)
@pytest.mark.parametrize("exe", ["plain", "instrumented"])
def test_load_builds_no_closure_trampoline_or_counter(exe, fuse,
                                                      instrumented):
    module = build_workload("quick") if exe == "plain" else instrumented
    cpu = Machine(module, fuse=fuse).cpu
    n = len(cpu._insts)
    assert n == len(module.section(".text").data) // 4
    assert all(is_stub(cpu, fn) for fn in cpu._code)
    assert all(is_stub(cpu, fn) for fn in cpu._dispatch)
    assert cpu.closures_built == 0 and cpu.sb_compiled == 0
    if fuse:
        assert cpu.sb_runs == len(cpu._runs) > 0
        heads = [i for i, fn in enumerate(cpu._dispatch)
                 if fn.__func__ == cpu._install_head]
        assert heads == sorted(cpu._runs)
    else:
        assert cpu._dispatch is cpu._code


# ---- what is built is what ran ---------------------------------------------

def executed_indices(module, args) -> set[int]:
    """Every index a run retires, observed by sampling each instruction."""
    sampler = PcSampler(interval=1)
    Machine(module, args=args, fuse=False).run(sampler=sampler)
    return set(sampler.counts)


@pytest.mark.parametrize("exe", ["plain", "instrumented"])
def test_built_closures_are_exactly_the_executed_indices(exe, instrumented):
    module = build_workload("quick") if exe == "plain" else instrumented
    args = ("40",)
    executed = executed_indices(module, args)
    n = len(module.section(".text").data) // 4
    assert len(executed) < n
    for fuse in MODES:
        machine = Machine(module, args=args, fuse=fuse)
        machine.run()
        cpu = machine.cpu
        built = built_indices(cpu)
        assert cpu.closures_built == len(built)
        # Fused runs build their closures on the cold first entry.
        assert built == executed, f"fuse={fuse}"
        # A head is installed exactly when it was dispatched; a head
        # that never ran still holds its stub.
        for start in getattr(cpu, "_runs", ()):
            if start not in executed:
                assert is_stub(cpu, cpu._dispatch[start])


def test_instrumented_short_run_builds_under_half_the_text(instrumented):
    machine = Machine(instrumented, args=("40",))
    machine.run()
    n = len(machine.cpu._insts)
    assert 0 < machine.cpu.closures_built < n // 2


# ---- late building is architecturally invisible -----------------------------

#: ``func``'s body is one superblock run.  Control first enters it
#: mid-run through a computed ``jsr`` before anything ever dispatched its
#: head, then enters at the head (hot, so fused) and mid-run
#: again, alternately.
MID_RUN = f"""
        li   s0, {HOT}
        clr  t9
        laa  pv, mid
        jsr  ra, (pv)
outer:  bsr  ra, func
        laa  pv, mid
        jsr  ra, (pv)
        subq s0, 1, s0
        bne  s0, outer
        and  t9, 0xff, t9
"""
MID_RUN_TAIL = """
        .globl func
        .globl mid
func:   addq t9, 1, t9
        xor  t9, 6, t9
mid:    addq t9, 3, t9
        sll  t9, 1, t9
        srl  t9, 1, t9
        ret  (ra)
"""


def test_computed_jump_into_never_entered_run_interior():
    module = build(MID_RUN, MID_RUN_TAIL)
    assert_lazy_matches_eager(module)
    base = module.section(".text").vaddr
    func = (module.symtab["func"].value - base) // 4
    mid = (module.symtab["mid"].value - base) // 4
    # Stop at the first budget by which the computed jump has landed:
    # only the stubs from ``mid`` on are built, and the head's slot
    # still holds its install stub.
    for budget in range(1, 64):
        machine = Machine(module)
        cpu = machine.cpu
        assert mid not in cpu._runs and func in cpu._runs
        with pytest.raises(BudgetExhausted):
            machine.run(max_insts=budget)
        if not is_stub(cpu, cpu._code[mid]):
            break
    assert is_stub(cpu, cpu._dispatch[func])
    assert cpu._dispatch[mid] is cpu._code[mid]
    assert all(is_stub(cpu, cpu._code[i]) for i in range(func, mid))


@pytest.mark.parametrize("budget", [50, 1000, 5000])
def test_budget_and_samples_match_eager(budget):
    module = build_workload("fib")
    assert_lazy_matches_eager(module, max_insts=budget)
    for fuse in MODES:
        streams = []
        for eager in (False, True):
            machine = Machine(module, fuse=fuse)
            if eager:
                make_eager(machine)
            sampler = PcSampler(interval=97)
            streams.append((outcome(machine, sampler=sampler),
                            sampler.counts, sampler.cycle_counts))
        assert streams[0] == streams[1]


def test_instrumented_run_matches_eager(instrumented):
    assert_lazy_matches_eager(instrumented)


# ---- load errors and decode isolation --------------------------------------

def test_illegal_opcode_in_unreachable_code_fails_at_load():
    module = build("        clr  t9", tail="        nop\n        nop\n")
    text = module.section(".text").data
    illegal = next(op for op in range(64) if op not in opcodes.BY_OPCODE)
    # Overwrite the last word: after the exit syscall, never reached.
    text[-4:] = (illegal << 26).to_bytes(4, "little")
    for fuse in MODES:
        with pytest.raises(EncodingError, match="illegal opcode"):
            Machine(module, fuse=fuse)


def test_every_decodable_opcode_has_a_closure():
    """Building closures at first execution moves no error from load to
    run time: every opcode ``decode`` accepts compiles."""
    cpu = Machine(build("        clr  t9")).cpu
    for op in opcodes.BY_OPCODE.values():
        inst = encoding.decode(op.opcode << 26)
        assert inst.op is op
        assert callable(cpu._compile(inst, 0, 1))


def test_decode_returns_a_fresh_instruction_per_call():
    word = encoding.encode(Instruction(opcodes.BY_MNEMONIC["addq"],
                                       ra=1, rb=2, rc=3))
    a, b = encoding.decode(word), encoding.decode(word)
    assert a == b and a is not b
    # OM's register renaming rewrites decoded instructions in place.
    a.ra = 9
    assert encoding.decode(word).ra == 1


def test_decode_memo_is_private_to_one_load():
    from repro.om import build_ir
    module = build_workload("fib")
    first, second = Machine(module).cpu, Machine(module).cpu
    # Within one load identical words share one Instruction ...
    assert len({id(inst) for inst in first._insts}) < len(first._insts)
    # ... but loads share nothing with each other or with decode().
    assert all(x is not y for x, y in zip(first._insts, second._insts))
    pristine = [(i.op, i.ra, i.rb, i.rc, i.disp) for i in second._insts]
    # OM decodes the same text and rewrites its instructions in place,
    # the way register renaming does; a later load must not see it.
    for proc in build_ir(module).procs:
        for ir in proc.instructions():
            ir.inst.ra = ir.inst.rb = ir.inst.rc = 7
    first._insts[0].ra = 7
    third = Machine(module).cpu
    assert [(i.op, i.ra, i.rb, i.rc, i.disp)
            for i in third._insts] == pristine


def test_closures_compile_once_per_shape(monkeypatch):
    """Closures come from one compiled factory per instruction shape
    (opcode, literal form, zero destination), never from a ``compile()``
    per instruction: building every closure of a taint-instrumented
    executable compiles at most once per shape it holds."""
    module = apply_tool(build_workload("quick"), get_tool("taint"),
                        opt=OptLevel.O1, cache=None).module
    cpu = Machine(module).cpu
    shapes = {(inst.op.opcode, inst.is_lit,
               cpu_mod._zero_dest(cpu_mod.SEMANTICS[inst.op.opcode], inst))
              for inst in cpu._insts}
    compiled = []

    def counting(source, filename, mode):
        compiled.append(filename)
        return compile(source, filename, mode)

    cpu_mod._closure_factory.cache_clear()
    monkeypatch.setattr(cpu_mod, "compile", counting, raising=False)
    for i, inst in enumerate(cpu._insts):
        cpu._compile(inst, i, cpu._costs[i])
    assert len(cpu._insts) > 30_000
    assert 0 < len(compiled) <= len(shapes)
