"""The region JIT must be architecturally invisible.

Every test runs the same program with jit on and off (and usually the
plain per-instruction loop too) and insists on identical observable
state — registers, stats, memory, exit status, faults and fault pcs.
The tier-up budgets are lowered (the ``early_tiers`` fixture: fuse on
a head's second entry, promote by its 17th) and the loops run hot
enough that regions actually get promoted, so the compiled code — not
the counter warm path — is what gets compared; each jit-vs-fused case
checks that the jit run promoted a region and the fused run compiled a
superblock.  The dispatch-loop error paths fixed alongside the JIT
(budget off-by-one, IndexError masking) are pinned here as well.
"""

import pytest

from repro.isa.asm import assemble
from repro.machine import MachineError
from repro.machine import jit as jit_mod
from repro.machine.loader import Machine

pytestmark = [pytest.mark.jit, pytest.mark.usefixtures("early_tiers")]

#: Loop iterations: far past promotion under the lowered budgets.
HOT = 128


def build(body: str):
    src = f"""
        .text
        .globl __start
__start:
        ldgp
{body}
        mov  t9, a0
        li   v0, 1
        sys
"""
    from repro.objfile.linker import link
    return link([assemble(src, "t.s")])


def machine_state(machine: Machine):
    pages = {no: bytes(page)
             for no, page in machine.memory._pages.items() if any(page)}
    return (list(machine.cpu.regs), list(machine.cpu.stats), pages)


def assert_compiled(jit_machine: Machine, fused_machine: Machine):
    """The jit run promoted a region and the fused run compiled a
    superblock: the comparison was between compiled tiers."""
    assert jit_machine.cpu.jit.promoted >= 1
    assert fused_machine.cpu.sb_compiled >= 1


#: Hot loop bodies: memory traffic through stack slots (slot hoisting
#: and store-to-load forwarding), sub-word accesses, calls and returns
#: (dynamic re-entry through the label map), and a multi-block loop.
JIT_PROGRAMS = {
    "stack-slots": f"""
        lda  sp, -64(sp)
        li   t0, {HOT}
        clr  t9
loop:   stq  t0, 0(sp)
        ldq  t1, 0(sp)
        stl  t0, 8(sp)
        ldl  t2, 8(sp)
        stw  t0, 16(sp)
        ldwu t3, 16(sp)
        stb  t0, 24(sp)
        ldbu t4, 24(sp)
        addq t9, t1, t9
        addq t9, t4, t9
        subq t0, 1, t0
        bne  t0, loop
        and  t9, 0xff, t9
""",
    "call-return": f"""
        li   s0, {HOT}
        clr  t9
loop:   mov  s0, a0
        bsr  ra, double
        addq t9, v0, t9
        subq s0, 1, s0
        bne  s0, loop
        and  t9, 0xff, t9
        br   done
double: addq a0, a0, v0
        ret  (ra)
done:
""",
    "nested-loops": """
        li   s0, 48
        clr  t9
outer:  li   t0, 10
inner:  addq t9, t0, t9
        subq t0, 1, t0
        bgt  t0, inner
        subq s0, 1, s0
        bgt  s0, outer
        and  t9, 0xff, t9
""",
    "frame-adjust": f"""
        li   s0, {HOT}
        clr  t9
loop:   lda  sp, -32(sp)
        stq  s0, 0(sp)
        ldq  t1, 0(sp)
        addq t9, t1, t9
        lda  sp, 32(sp)
        subq s0, 1, s0
        bne  s0, loop
        and  t9, 0xff, t9
""",
}


def run_three(body: str, max_insts: int = 2_000_000_000):
    """{(fuse, jit): (RunResult, state, machine)} over all three
    dispatch paths."""
    out = {}
    for fuse, jit in ((True, True), (True, False), (False, False)):
        machine = Machine(build(body), fuse=fuse, jit=jit)
        result = machine.run(max_insts=max_insts)
        out[(fuse, jit)] = (result, machine_state(machine), machine)
    return out


@pytest.mark.parametrize("name", sorted(JIT_PROGRAMS))
def test_jit_state_bit_identical(name):
    results = run_three(JIT_PROGRAMS[name])
    jit_result, jit_state, jit_machine = results[(True, True)]
    assert_compiled(jit_machine, results[(True, False)][2])
    for other in ((True, False), (False, False)):
        result, state, _ = results[other]
        assert jit_result.status == result.status
        assert jit_result.cycles == result.cycles
        assert jit_result.inst_count == result.inst_count
        assert jit_state == state


def test_hot_loops_actually_promote():
    machine = Machine(build(JIT_PROGRAMS["stack-slots"]), jit=True)
    machine.run()
    stats = machine.cpu.jit_stats()
    assert stats["jit_regions"] >= 1
    assert stats["jit_resident"] >= 1


def test_jit_stats_none_when_disabled():
    machine = Machine(build(JIT_PROGRAMS["stack-slots"]), jit=False)
    machine.run()
    assert machine.cpu.jit_stats() is None


def test_memory_fault_pc_identical_in_jit_region():
    # poke stays hot on a valid address long enough to be promoted,
    # then faults inside the *compiled region* on the last call.
    body = f"""
        lda  sp, -16(sp)
        li   s0, {HOT}
        clr  t9
loop:   mov  sp, a0
        bsr  ra, poke
        subq s0, 1, s0
        bne  s0, loop
        li   a0, 0x90000000
        bsr  ra, poke
        br   done
poke:   stq  zero, 0(a0)
        ret  (ra)
done:
"""
    outcomes, machines = [], []
    for jit in (True, False):
        machine = Machine(build(body), jit=jit)
        with pytest.raises(MachineError) as excinfo:
            machine.run()
        assert excinfo.value.pc is not None
        outcomes.append((str(excinfo.value), machine_state(machine)))
        machines.append(machine)
    assert outcomes[0] == outcomes[1]
    assert_compiled(*machines)


def test_divide_fault_identical_in_jit_region():
    body = f"""
        li   s0, {HOT}
        li   a0, 4
        clr  t9
loop:   bsr  ra, dodiv
        subq s0, 1, s0
        bne  s0, loop
        clr  a0
        bsr  ra, dodiv
        br   done
dodiv:  li   t0, 100
        divq t0, a0, t1
        ret  (ra)
done:
"""
    outcomes, machines = [], []
    for jit in (True, False):
        machine = Machine(build(body), jit=jit)
        with pytest.raises(MachineError, match="division by zero") as ei:
            machine.run()
        assert ei.value.pc is not None
        outcomes.append((str(ei.value), machine_state(machine)))
        machines.append(machine)
    assert outcomes[0] == outcomes[1]
    assert_compiled(*machines)


def test_cache_eviction_stress():
    # Many distinct hot loops with a cache that holds only two regions:
    # every promotion past the cap evicts the oldest, the evicted head
    # re-promotes when it gets hot again, and none of it may change
    # architectural state.  The loops are separated by branch chains
    # longer than one region's block budget so each loop promotes as
    # its own region rather than all landing in the first one.
    from repro.machine.jit import MAX_BLOCKS
    pieces = []
    for k in range(6):
        pieces.append(f"""        li   t0, {HOT}
l{k}:     addq t9, {k + 1}, t9
        subq t0, 1, t0
        bne  t0, l{k}""")
        pieces.extend(f"s{k}_{j}: br s{k}_{j + 1}"
                      for j in range(MAX_BLOCKS + 2))
        pieces.append(f"s{k}_{MAX_BLOCKS + 2}:")
    body = "\n".join(pieces) + "\n        and  t9, 0xff, t9\n"
    baseline = Machine(build(body), jit=False)
    base_result = baseline.run()

    machine = Machine(build(body), jit=True)
    machine.cpu.jit.cache_cap = 2
    result = machine.run()
    assert_compiled(machine, baseline)
    stats = machine.cpu.jit_stats()
    assert stats["jit_evictions"] > 0
    assert stats["jit_resident"] <= 2
    assert (result.status, result.cycles, result.inst_count) == \
        (base_result.status, base_result.cycles, base_result.inst_count)
    assert machine_state(machine) == machine_state(baseline)


def test_invalidation_hooks():
    machine = Machine(build(JIT_PROGRAMS["stack-slots"]), jit=True)
    machine.run()
    jm = machine.cpu.jit
    before = jm.stats()["jit_resident"]
    assert before >= 1
    jm.invalidate_all()
    after = jm.stats()
    assert after["jit_resident"] == 0
    assert after["jit_invalidations"] >= before


def test_invalidate_range_is_selective():
    machine = Machine(build(JIT_PROGRAMS["stack-slots"]), jit=True)
    machine.run()
    jm = machine.cpu.jit
    regions = list(jm._installed.values())
    assert regions
    # A range that overlaps no region must invalidate nothing.
    past_end = max(r.hi for r in regions) + 100
    jm.invalidate(past_end, past_end + 10)
    assert jm.stats()["jit_resident"] == len(regions)
    # A range covering the first region's head must drop (at least) it.
    victim = regions[0]
    jm.invalidate(victim.head, victim.head + 1)
    assert jm.stats()["jit_resident"] < len(regions)


def chain(tag: str, blocks: int) -> str:
    """A branch chain longer than one region's block budget, so the
    loops on either side can never land in the same region."""
    lines = [f"{tag}_{j}: br {tag}_{j + 1}" for j in range(blocks)]
    return "\n".join(lines + [f"{tag}_{blocks}:"])


def test_cache_cap_one_eviction_churn():
    # Two hot loops alternating inside an outer loop with a one-slot
    # cache: every outer iteration promotes each loop anew, evicting
    # the other — maximal churn, every promotion a re-promotion of a
    # previously evicted head.  State must stay bit-identical.
    from repro.machine.jit import MAX_BLOCKS
    outer = 6
    body = f"""
        li   s5, {outer}
        clr  t9
outer:  li   t0, {HOT}
lA:     addq t9, 1, t9
        subq t0, 1, t0
        bne  t0, lA
{chain('sa', MAX_BLOCKS + 2)}
        li   t1, {HOT}
lB:     addq t9, 2, t9
        subq t1, 1, t1
        bne  t1, lB
{chain('sb', MAX_BLOCKS + 2)}
        subq s5, 1, s5
        bgt  s5, outer
        and  t9, 0xff, t9
"""
    baseline = Machine(build(body), jit=False)
    base_result = baseline.run()

    machine = Machine(build(body), jit=True)
    machine.cpu.jit.cache_cap = 1
    result = machine.run()
    assert_compiled(machine, baseline)
    stats = machine.cpu.jit_stats()
    assert stats["jit_resident"] <= 1
    # churn, not steady state: far more promotions than the cache holds,
    # which can only happen if evicted heads re-promote identically
    assert stats["jit_regions"] > 4
    assert stats["jit_evictions"] >= stats["jit_regions"] - 1
    assert (result.status, result.cycles, result.inst_count) == \
        (base_result.status, base_result.cycles, base_result.inst_count)
    assert machine_state(machine) == machine_state(baseline)


class InvalidateMidRun:
    """Sampler that fires ``invalidate(lo, hi)`` over the first
    installed region at the Nth sample boundary — while control is
    still executing inside the hot loop that region covers."""

    track_calls = False

    def __init__(self, interval: int, at_sample: int):
        self.interval = interval
        self.at_sample = at_sample
        self.counts: dict[int, int] = {}
        self.cpu = None
        self.invalidated_spans: list[tuple[int, int]] = []

    def bind(self, cpu):
        self.cpu = cpu
        return self

    def sample(self, index: int) -> None:
        self.counts[index] = self.counts.get(index, 0) + 1
        n = sum(self.counts.values())
        jm = self.cpu.jit
        if jm is not None and n == self.at_sample and jm._installed:
            region = next(iter(jm._installed.values()))
            jm.invalidate(region.lo, region.hi)
            self.invalidated_spans.append((region.lo, region.hi))


@pytest.mark.parametrize("name", ["stack-slots", "nested-loops"])
def test_invalidate_mid_region_then_repromote(name):
    # Invalidate the promoted region's whole [lo, hi) span at an exact
    # instruction boundary mid-loop: execution falls back to the warm
    # tiers, the loop re-heats and re-promotes, and the final state and
    # sample stream are bit-identical to a JIT-less run.
    from repro.obs.runtime import PcSampler
    interval = 97
    baseline = Machine(build(JIT_PROGRAMS[name]), jit=False)
    base_sampler = PcSampler(interval=interval)
    base_result = baseline.run(sampler=base_sampler)

    machine = Machine(build(JIT_PROGRAMS[name]), jit=True)
    sampler = InvalidateMidRun(interval=interval, at_sample=4)
    result = machine.run(sampler=sampler)

    assert sampler.invalidated_spans, "nothing was promoted before the " \
        "invalidation point; make the loop hotter or sample later"
    assert_compiled(machine, baseline)
    stats = machine.cpu.jit_stats()
    assert stats["jit_invalidations"] >= 1
    # the loop got hot again after the drop and promoted a second time
    assert stats["jit_regions"] >= 2
    assert stats["jit_resident"] >= 1
    assert (result.status, result.cycles, result.inst_count) == \
        (base_result.status, base_result.cycles, base_result.inst_count)
    assert machine_state(machine) == machine_state(baseline)
    assert sampler.counts == base_sampler.counts


def test_invalidate_mid_region_state_matches_uninvalidated_jit():
    # Same program, same JIT, with and without a mid-run invalidation:
    # re-promotion must regenerate code that leaves identical state.
    results = {}
    for invalidate in (False, True):
        machine = Machine(build(JIT_PROGRAMS["stack-slots"]), jit=True)
        if invalidate:
            sampler = InvalidateMidRun(interval=97, at_sample=4)
        else:
            from repro.obs.runtime import PcSampler
            sampler = PcSampler(interval=97)
        result = machine.run(sampler=sampler)
        results[invalidate] = (result.status, result.cycles,
                               result.inst_count, machine_state(machine))
    assert results[True] == results[False]


def test_handler_internal_indexerror_propagates():
    # An IndexError raised *inside* a handler body is a simulator bug
    # and must surface with its real traceback, not be masked as
    # "control left the text segment" by the dispatch loop's guard.
    for fuse in (True, False):
        machine = Machine(build("        addq t9, 1, t9"), fuse=fuse)
        cpu = machine.cpu
        index = cpu._index_of(machine.module.entry)

        def buggy():
            raise IndexError("handler bug, not a control-flow exit")

        cpu._code[index] = buggy
        cpu._dispatch[index] = buggy
        with pytest.raises(IndexError, match="handler bug"):
            machine.run()


def test_control_past_text_end_still_reported():
    # The guard the IndexError catch exists for: control falling past
    # the end of text (a module with no exit syscall) must still
    # surface as the control-left-text fault, not a raw IndexError.
    src = """
        .text
        .globl __start
__start:
        addq t9, 1, t9
        addq t9, 1, t9
"""
    from repro.objfile.linker import link
    module = link([assemble(src, "t.s")])
    for fuse in (True, False):
        machine = Machine(module, fuse=fuse)
        with pytest.raises(MachineError,
                           match="control left the text segment"):
            machine.run()


def test_sampled_profile_identical_with_jit():
    # The deterministic PC sampler must land on exact instruction
    # boundaries with the JIT engaged: the sampled stream is a pure
    # function of (text, entry, interval).
    from repro.obs.runtime import PcSampler
    samples, machines = {}, []
    for jit in (True, False):
        machine = Machine(build(JIT_PROGRAMS["nested-loops"]), jit=jit)
        sampler = PcSampler(interval=7)
        machine.run(sampler=sampler)
        samples[jit] = (dict(sampler.counts),
                        dict(sampler.cycle_counts))
        machines.append(machine)
    assert samples[True] == samples[False]
    assert_compiled(*machines)
    assert samples[True][0], "sampler collected nothing"


#: A loop whose only way back to its head is a computed call: no region
#: rooted in it has a back-edge reachable along static edges.
NO_BACK_EDGE = f"""
        li   s0, {HOT}
        clr  t9
loop:   laa  pv, func
        jsr  ra, (pv)
        subq s0, 1, s0
        bne  s0, loop
        and  t9, 0xff, t9
        br   done
        .globl func
func:   addq t9, 3, t9
        xor  t9, 5, t9
        ret  (ra)
done:
"""


def test_region_without_back_edge_is_denied():
    """The one expected denial: the head is counted in ``jit_denied``
    and keeps its fused executor, with state identical to jit off."""
    machines = {}
    for jit in (True, False):
        machine = Machine(build(NO_BACK_EDGE), jit=jit)
        machine.run()
        machines[jit] = machine
    stats = machines[True].cpu.jit_stats()
    assert stats["jit_denied"] >= 1
    assert stats["jit_compiled"] == stats["jit_resident"] == 0
    cpu = machines[True].cpu
    func = cpu._index_of(machines[True].module.symtab["func"].value)
    assert cpu._dispatch[func] is cpu.jit._fused[func]
    assert machine_state(machines[True]) == machine_state(machines[False])


def test_region_generation_errors_propagate(monkeypatch):
    """Only the no-back-edge case is a denial: a failure anywhere else
    in building a region is a bug and must surface, not be counted as
    ``jit_denied`` while the run carries on fused."""
    def broken(*args):
        raise AssertionError("region source bug")
    monkeypatch.setattr(jit_mod, "_effective_keys", broken)
    machine = Machine(build(JIT_PROGRAMS["stack-slots"]), jit=True)
    with pytest.raises(AssertionError, match="region source bug"):
        machine.run()
    assert machine.cpu.jit.denied == 0


def test_every_fusible_opcode_has_a_template():
    """The back-edge denial is the only expected way a region fails to
    build: every memory and operate opcode has a fused template (and a
    region-tier rewrite of it), register and literal forms alike, and
    every branch and jump a terminator template."""
    from repro.isa import opcodes
    from repro.isa.instruction import Instruction
    from repro.isa.opcodes import Format
    from repro.machine.cpu import _gen_inst, _gen_term
    checked = 0
    for op in opcodes.BY_MNEMONIC.values():
        if op.format in (Format.MEMORY, Format.OPERATE):
            for lit in (False, True):
                inst = Instruction(op, ra=1, rb=2, rc=3, disp=8, lit=5,
                                   is_lit=lit)
                lines, _ = _gen_inst(inst, 0x1000)
                compile("\n".join(lines) or "pass", op.mnemonic, "exec")
                lines, _ = jit_mod._gen_inst_jit(inst, 0x1000, None)
                compile("\n".join(lines) or "pass", op.mnemonic, "exec")
            checked += 1
        elif op.format in (Format.BRANCH, Format.JUMP):
            inst = Instruction(op, ra=1, rb=2, disp=-4)
            body = "\n".join(" " + line
                             for line in _gen_term(inst, 40, 0x1000))
            compile(f"def t():\n{body}\n", op.mnemonic, "exec")
            checked += 1
    assert checked == sum(op.format is not Format.SYSTEM
                          for op in opcodes.BY_MNEMONIC.values()) == 47
