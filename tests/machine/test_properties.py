"""Property tests: the CPU against an independent reference model.

Hypothesis generates random programs over every WRL-64 opcode but
``halt``: operates in register and literal forms (``cmov``, ``divq`` and
``remq`` included), ``lda``/``ldah``, every load and store width on a
mapped data region (page-crossing, partially mapped and faulting
accesses included), conditional and unconditional branches (forward,
or out of the text: below its start or past its end), ``bsr`` links,
and ``jsr``/``jmp``/``ret`` through computed addresses.  A small
interpreter written from the ISA description, not from the machine's
templates, predicts how each program ends (its exit status, or the trap
and the pc it is raised at), every register, the data region and, on
exit, the retired instruction count.

The machine must agree on both of its consumers of the semantics table:
per-instruction closures (``fuse=False``) and fused superblock
executors.  The body sits in a loop that runs three times with the
tier-up budget lowered, so the loop head, a run of at least two
instructions, fuses on its second entry; every run whose reference
reaches that entry must have compiled a superblock.
"""

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.fuzz_matrix import DIFF_FUSE_WORK
from repro.isa import encoding, opcodes, registers as R
from repro.isa.instruction import Instruction
from repro.machine.costmodel import DEFAULT
from repro.machine.cpu import Cpu, MachineError
from repro.machine.memory import Memory
from repro.machine.syscalls import Kernel

MASK = (1 << 64) - 1
TEXT = 0x1000
DATA = 0x10000
#: Two whole pages and part of a third: the partial page and accesses
#: that cross a page boundary always take the checked memory path.
DATA_SIZE = 2 * 4096 + 64
ITERATIONS = 3
#: Far more instructions than any generated program retires (every
#: transfer but the loop's goes forward), so a machine that loops where
#: the reference does not fails at once instead of running for hours.
MAX_INSTS = 100_000

#: Registers random programs write; they read these, zero, the loop
#: counter and the two data bases as well.
REGS = [R.T0, R.T1, R.T2, R.T3, R.V0, R.A0, R.A1, R.S0]
#: ``BASE`` is the data region's start.  ``STRIDE`` moves ``IDX`` on by
#: the data region's size over the loop's three iterations, so every
#: access through it faults by the last one, inside fused code.
CTR, BASE, IDX = R.S4, R.S5, R.S3
STRIDE = DATA_SIZE // 2
DSTS = REGS + [R.ZERO]
SRCS = DSTS + [CTR, BASE, IDX]

OPERATE_OPS = [op for op in opcodes.ALL_OPS
               if op.format is opcodes.Format.OPERATE]
LINK_BRANCHES = [opcodes.BR, opcodes.BSR]
JUMPS = [opcodes.JMP, opcodes.JSR, opcodes.RET]

# ---- the reference model ------------------------------------------------------


def s64(v):
    return v - (1 << 64) if v >= 1 << 63 else v


def quotient(a, b):
    """Division rounding toward zero."""
    q = a // b
    return q + 1 if q < 0 and q * b != a else q


def sext(v, size):
    return int.from_bytes((v & ((1 << 8 * size) - 1)).to_bytes(size, "little"),
                          "little", signed=True)


ALU = {
    "addq": lambda a, b: a + b,
    "subq": lambda a, b: a - b,
    "mulq": lambda a, b: a * b,
    "umulh": lambda a, b: (a * b) >> 64,
    "and": lambda a, b: a & b,
    "bis": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "bic": lambda a, b: a & ~b,
    "ornot": lambda a, b: a | ~b,
    "sll": lambda a, b: a << (b % 64),
    "srl": lambda a, b: a >> (b % 64),
    "sra": lambda a, b: s64(a) >> (b % 64),
    "cmpeq": lambda a, b: int(a == b),
    "cmplt": lambda a, b: int(s64(a) < s64(b)),
    "cmple": lambda a, b: int(s64(a) <= s64(b)),
    "cmpult": lambda a, b: int(a < b),
    "cmpule": lambda a, b: int(a <= b),
    "sextb": lambda a, b: sext(b, 1),
    "sextw": lambda a, b: sext(b, 2),
    "sextl": lambda a, b: sext(b, 4),
}
TAKEN = {
    "beq": lambda v: v == 0,
    "bne": lambda v: v != 0,
    "blt": lambda v: s64(v) < 0,
    "ble": lambda v: s64(v) <= 0,
    "bgt": lambda v: s64(v) > 0,
    "bge": lambda v: s64(v) >= 0,
    "blbc": lambda v: v % 2 == 0,
    "blbs": lambda v: v % 2 == 1,
}
#: Width in bytes and sign extension of each load; width of each store.
LOADS = {"ldbu": (1, False), "ldwu": (2, False), "ldl": (4, True),
         "ldq": (8, False)}
STORES = {"stb": 1, "stw": 2, "stl": 4, "stq": 8}


@dataclass
class Expected:
    #: ("exit", status) or ("trap", pc, message)
    outcome: tuple
    regs: list
    data: bytes
    insts: int
    #: How often the loop head ran.
    head_entries: int


class Trap(Exception):
    def __init__(self, pc, message):
        super().__init__(f"pc={pc:#x}: {message}")
        self.pc = pc


def reference(program, loop, init, data) -> Expected:
    regs = [0] * 32
    for n, v in init.items():
        regs[n] = v
    mem = bytearray(data)
    insts = entries = 0

    def get(n):
        return 0 if n == R.ZERO else regs[n]

    def put(n, v):
        if n != R.ZERO:
            regs[n] = v & MASK

    def offset(addr, size, pc):
        if not (DATA <= addr and addr + size <= DATA + DATA_SIZE):
            raise Trap(pc, f"unmapped address: {addr:#x}")
        return addr - DATA

    i = 0
    try:
        while True:
            pc = TEXT + 4 * i
            if not 0 <= i < len(program):
                raise Trap(pc, "control left the text segment")
            inst = program[i]
            name = inst.op.mnemonic
            insts += 1
            entries += i == loop
            a = get(inst.ra)
            b = inst.lit if inst.is_lit else get(inst.rb)
            i += 1
            if name in ALU:
                put(inst.rc, ALU[name](a, b))
            elif name in ("divq", "remq"):
                if inst.rc != R.ZERO:
                    if b == 0:
                        what = "division" if name == "divq" else "remainder"
                        raise Trap(pc, f"integer {what} by zero")
                    q = quotient(s64(a), s64(b))
                    put(inst.rc, q if name == "divq" else s64(a) - s64(b) * q)
            elif name in ("cmoveq", "cmovne"):
                if (a == 0) == (name == "cmoveq"):
                    put(inst.rc, b)
            elif name == "lda":
                put(inst.ra, b + inst.disp)
            elif name == "ldah":
                put(inst.ra, b + inst.disp * 65536)
            elif name in LOADS:
                size, signed = LOADS[name]
                at = offset((b + inst.disp) & MASK, size, pc)
                put(inst.ra, int.from_bytes(mem[at:at + size], "little",
                                            signed=signed))
            elif name in STORES:
                size = STORES[name]
                at = offset((b + inst.disp) & MASK, size, pc)
                mem[at:at + size] = (a % (1 << 8 * size)).to_bytes(size,
                                                                    "little")
            elif name in TAKEN:
                if TAKEN[name](a):
                    i += inst.disp
            elif name in ("br", "bsr"):
                put(inst.ra, TEXT + 4 * i)
                i += inst.disp
            elif name in ("jmp", "jsr", "ret"):
                dest = b - b % 4
                if name != "ret":
                    put(inst.ra, TEXT + 4 * i)
                if dest < TEXT:
                    raise Trap(pc, f"jump to {dest:#x} outside text")
                i = (dest - TEXT) // 4
            elif name == "sys":
                assert get(R.V0) == 1, "only the exit syscall is generated"
                outcome = ("exit", get(R.A0) % 256)
                break
            else:  # pragma: no cover
                raise AssertionError(name)
    except Trap as trap:
        outcome = ("trap", trap.pc, str(trap))
    return Expected(outcome, regs, bytes(mem), insts, entries)


# ---- programs -------------------------------------------------------------------

skip = st.integers(min_value=0, max_value=4)

#: ``same`` reads one register twice: equal operands are the edge case
#: of every comparison.
operate = st.builds(
    lambda op, ra, rb, rc, lit, is_lit, same: ("op", Instruction(
        op, ra=ra, rb=ra if same else rb, rc=rc, lit=lit, is_lit=is_lit)),
    op=st.sampled_from(OPERATE_OPS), ra=st.sampled_from(SRCS),
    rb=st.sampled_from(SRCS), rc=st.sampled_from(DSTS),
    lit=st.integers(min_value=0, max_value=255), is_lit=st.booleans(),
    same=st.booleans())

address = st.builds(
    lambda op, ra, rb, disp: ("op", Instruction(op, ra=ra, rb=rb,
                                                disp=disp)),
    op=st.sampled_from([opcodes.LDA, opcodes.LDAH]),
    ra=st.sampled_from(DSTS), rb=st.sampled_from(SRCS),
    disp=st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1))

#: Mostly in range; page edges; now and then just outside the region.
offsets = st.one_of(
    st.integers(min_value=0, max_value=DATA_SIZE - 8),
    st.integers(min_value=4088, max_value=4100),
    st.integers(min_value=8184, max_value=8200),
    st.integers(min_value=-8, max_value=DATA_SIZE + 8))

memory = st.builds(
    lambda op, ra, rb, disp: ("op", Instruction(op, ra=ra, rb=rb,
                                                disp=disp)),
    op=st.sampled_from(opcodes.LOAD_OPS + opcodes.STORE_OPS),
    ra=st.sampled_from(DSTS), rb=st.sampled_from([BASE] * 7 + [IDX]),
    disp=offsets)

branch = st.builds(
    lambda op, ra, n: ("branch", op, ra, n),
    op=st.sampled_from(opcodes.COND_BRANCH_OPS), ra=st.sampled_from(SRCS),
    n=skip)

link = st.builds(
    lambda op, ra, n: ("branch", op, ra, n),
    op=st.sampled_from(LINK_BRANCHES), ra=st.sampled_from(DSTS), n=skip)

#: A branch out of the text, below its start or past its end (traps),
#: taken on the loop's last iteration only: a conditional one tests the
#: loop counter, zero only then; a linking one sits behind ``bne ctr``.
leave = st.builds(
    lambda op, ra, where, n: ("leave", op, ra, where, n),
    op=st.sampled_from([opcodes.BEQ, opcodes.BLE] + LINK_BRANCHES),
    ra=st.sampled_from(DSTS), where=st.sampled_from(["below", "past"]),
    n=skip)

#: ``lda rx, addr`` then ``jmp/jsr/ret ra, (rx)``: forward, or, on the
#: loop's last iteration only, below the text or past its end (traps);
#: ``low`` misaligns the address.
jump = st.builds(
    lambda op, ra, rx, where, n, low: ("jump", op, ra, rx, where, n, low),
    op=st.sampled_from(JUMPS), ra=st.sampled_from(DSTS),
    rx=st.sampled_from(REGS),
    where=st.sampled_from(["forward"] * 4 + ["below", "past"]),
    n=skip, low=st.integers(min_value=0, max_value=3))

#: Half of all items are operates, which hold most of the opcodes.
items = st.lists(st.sampled_from([operate] * 6 + [address, memory, memory,
                                                  branch, link, jump, leave])
                 .flatmap(lambda item: item), min_size=1, max_size=30)


def assemble(items):
    """The program and the index of its loop head:

        lda   ctr, ITERATIONS(zero)
        ldah  base, DATA >> 16(zero)
        lda   idx, -STRIDE(base)
    loop: subq  ctr, #1, ctr
        lda   idx, STRIDE(idx)
        <items>                      forward transfers only
        bne   ctr, loop
        lda   v0, 1(zero)
        sys                          exit(a0)

    A transfer skips whole items, so it never lands inside a jump
    group.  A group that leaves the text is skipped, by ``bne ctr``,
    until the last iteration; so is a linking branch out of it.  A
    conditional branch out of it tests ``ctr`` itself.
    """
    loop = 3
    starts = [loop + 2]
    for kind, *spec in items:
        if kind == "jump":
            size = 2 if spec[3] == "forward" else 3
        else:
            size = 2 if kind == "leave" and spec[0] in LINK_BRANCHES else 1
        starts.append(starts[-1] + size)
    tail = starts[-1]
    end = tail + 3
    program = [Instruction(opcodes.LDA, ra=CTR, rb=R.ZERO, disp=ITERATIONS),
               Instruction(opcodes.LDAH, ra=BASE, rb=R.ZERO,
                           disp=DATA >> 16),
               Instruction(opcodes.LDA, ra=IDX, rb=BASE, disp=-STRIDE),
               Instruction(opcodes.SUBQ, ra=CTR, lit=1, is_lit=True, rc=CTR),
               Instruction(opcodes.LDA, ra=IDX, rb=IDX, disp=STRIDE)]
    for k, (kind, *spec) in enumerate(items):
        if kind == "op":
            program.append(spec[0])
            continue
        if kind == "branch":
            op, ra, n = spec
            target = starts[min(k + 1 + n, len(items))]
            program.append(Instruction(op, ra=ra,
                                       disp=target - len(program) - 1))
        elif kind == "leave":
            op, ra, where, n = spec
            target = -1 - n if where == "below" else end + n
            if op in LINK_BRANCHES:
                program.append(Instruction(opcodes.BNE, ra=CTR, disp=1))
            else:
                ra = CTR
            program.append(Instruction(op, ra=ra,
                                       disp=target - len(program) - 1))
        else:
            op, ra, rx, where, n, low = spec
            target = starts[min(k + 1 + n, len(items))]
            addr = {"forward": TEXT + 4 * target, "below": 0,
                    "past": TEXT + 4 * (end + n)}[where] + low
            if where != "forward":
                program.append(Instruction(opcodes.BNE, ra=CTR, disp=2))
            program += [Instruction(opcodes.LDA, ra=rx, rb=R.ZERO, disp=addr),
                        Instruction(op, ra=ra, rb=rx)]
    program += [Instruction(opcodes.BNE, ra=CTR, disp=loop - tail - 1),
                Instruction(opcodes.LDA, ra=R.V0, rb=R.ZERO, disp=1),
                Instruction(opcodes.SYS)]
    assert len(program) == end
    return program, loop


def run_machine(program, init, data, fuse):
    """The machine's outcome, in the reference's terms, and its Cpu."""
    blob = encoding.encode_stream(program)
    memory = Memory()
    memory.map_region(TEXT, len(blob), "text")
    memory.write(TEXT, blob)
    memory.map_region(DATA, DATA_SIZE, "data")
    memory.write(DATA, data)
    cpu = Cpu(memory, Kernel(memory), TEXT, blob, DEFAULT, fuse=fuse)
    cpu.fuse_work = DIFF_FUSE_WORK
    for n, v in init.items():
        cpu.regs[n] = v
    try:
        outcome = ("exit", cpu.run(TEXT, max_insts=MAX_INSTS))
    except MachineError as exc:      # a trap: the reference names which
        outcome = ("trap", exc.pc, str(exc))
    return outcome, cpu


#: Full-range values, small ones and the edges of the signed and
#: unsigned ranges, so that registers often hold equal values.
values = st.one_of(st.integers(min_value=0, max_value=MASK),
                   st.integers(min_value=-4, max_value=4).map(
                       lambda v: v & MASK),
                   st.sampled_from([1 << 63, (1 << 63) - 1, 255, 256]))
inits = st.lists(values, min_size=len(REGS), max_size=len(REGS))


def check(items, init, data):
    """Run ``items`` on the reference and on both consumers; all three
    must agree.  Returns the reference's prediction."""
    program, loop = assemble(items)
    expected = reference(program, loop, init, data)
    for fuse in (False, True):
        outcome, cpu = run_machine(program, init, data, fuse)
        where = "fused" if fuse else "closures"
        assert outcome == expected.outcome, where
        assert cpu.regs == expected.regs, where
        assert cpu.memory.read(DATA, DATA_SIZE) == expected.data, where
        if outcome[0] == "exit":
            assert cpu.inst_count == expected.insts, where
        if fuse and expected.head_entries >= 2:
            assert cpu.sb_compiled > 0
    return expected


@settings(max_examples=300, deadline=None)
@given(items=items, seed=inits, data_seed=st.integers(0, 1 << 32))
def test_machine_matches_reference(items, seed, data_seed):
    check(items, dict(zip(REGS, seed)),
          random.Random(data_seed).randbytes(DATA_SIZE))


# ---- every opcode on edge operands -----------------------------------------

EDGES = [0, 1, 2, 0x7F, 0x80, 0xFF, 0x7FFFFFFF, 0x80000000, (1 << 63) - 1,
         1 << 63, MASK - 1, MASK]
LITERALS = [0, 1, 63, 64, 128, 255]
#: Where results are stored, in the first data page after the edges.
OUT = 1024
#: Load offsets: aligned, the first page's last bytes (the wider
#: widths cross into the second page), the partial third page.
OFFSETS = [8, 4088, 4093, 4095, 8192, DATA_SIZE - 8]


def load(reg, offset):
    return ("op", Instruction(opcodes.LDQ, ra=reg, rb=BASE, disp=offset))


def store(reg, k):
    return ("op", Instruction(opcodes.STQ, ra=reg, rb=BASE, disp=OUT + 8 * k))


def li(reg, value):
    return ("op", Instruction(opcodes.LDA, ra=reg, rb=R.ZERO, disp=value))


def edge_items(op):
    """One program's items that run ``op`` on every edge operand and
    store each result."""
    t0, t1, t2 = R.T0, R.T1, R.T2
    out = []
    if op.format is opcodes.Format.OPERATE:
        divides = op.mnemonic in ("divq", "remq")
        pairs = [(a, b, False) for a in range(len(EDGES))
                 for b in range(len(EDGES)) if not (divides and b == 0)]
        pairs += [(a, lit, True) for a in range(len(EDGES))
                  for lit in LITERALS if not (divides and lit == 0)]
        for k, (a, b, is_lit) in enumerate(pairs):
            out += [load(t0, 8 * a), li(t2, 7)]
            if not is_lit:
                out.append(load(t1, 8 * b))
            out += [("op", Instruction(op, ra=t0, rb=t1, rc=t2, lit=b,
                                       is_lit=is_lit)), store(t2, k)]
    elif op.inst_class is opcodes.InstClass.LOAD:
        for k, offset in enumerate(OFFSETS):
            out += [("op", Instruction(op, ra=t2, rb=BASE, disp=offset)),
                    store(t2, k)]
    elif op.inst_class is opcodes.InstClass.STORE:
        # Each value goes to its own aligned slot, across the first page
        # boundary and into the partial page; the last two are read back
        # before the next value overwrites them.
        for a in range(len(EDGES)):
            out.append(load(t0, 8 * a))
            out += [("op", Instruction(op, ra=t0, rb=BASE, disp=offset))
                    for offset in (2048 + 16 * a, 4093, DATA_SIZE - 8)]
            for k, offset in enumerate((4088, 4096, DATA_SIZE - 8)):
                out += [load(t1, offset), store(t1, 3 * a + k)]
    else:                               # a conditional branch
        for k in range(len(EDGES)):
            out += [load(t0, 8 * k), li(t2, 0), ("branch", op, t0, 1),
                    li(t2, 1), store(t2, k)]
    return out


EDGE_OPS = [op for op in opcodes.ALL_OPS
            if op.format is opcodes.Format.OPERATE
            or op.inst_class in (opcodes.InstClass.LOAD,
                                 opcodes.InstClass.STORE,
                                 opcodes.InstClass.COND_BRANCH)]


@pytest.mark.parametrize("op", EDGE_OPS, ids=lambda op: op.mnemonic)
def test_every_opcode_on_edge_operands(op):
    """Each operate on every pair of edge values (register and literal
    forms), each load and store width at page edges, each conditional
    branch on every edge value: the reference and both consumers agree,
    and the program exits."""
    data = bytearray(random.Random(0).randbytes(DATA_SIZE))
    data[:8 * len(EDGES)] = b"".join(v.to_bytes(8, "little") for v in EDGES)
    expected = check(edge_items(op), dict.fromkeys(REGS, 0), bytes(data))
    assert expected.outcome[0] == "exit"


@settings(max_examples=60, deadline=None)
@given(items=items, seed=inits)
def test_encode_decode_preserves_semantics(items, seed):
    """Round-tripping a program through binary changes nothing."""
    program, _ = assemble(items)
    init = dict(zip(REGS, seed))
    data = bytes(DATA_SIZE)
    decoded = encoding.decode_stream(encoding.encode_stream(program))
    a_out, a = run_machine(program, init, data, True)
    b_out, b = run_machine(decoded, init, data, True)
    assert a_out == b_out
    assert a.regs == b.regs
    assert a.cycles == b.cycles
