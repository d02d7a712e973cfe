"""Tier-up policy: a superblock head climbs from per-instruction
closures to its fused executor to a compiled region by the work retired
through it, not by how often it was entered.

A head's one counter adds the run's static length on every entry.  The
first entry on which the work retired by earlier entries has reached
``FUSE_WORK`` runs fused; the first on which it has reached
``JIT_WORK`` asks the JIT to promote the head.  The budgets are patched
small here so the entry arithmetic is visible, and every case checks
that architectural state equals the ``fuse=False`` run.
"""

import pytest

from repro.machine import cpu as cpu_mod
from repro.machine import jit as jit_mod
from repro.machine.jit import MAX_BLOCKS
from repro.machine.loader import Machine

from .test_jit import build, chain, machine_state

pytestmark = pytest.mark.jit

FUSE = 80
PROMOTE = 400


@pytest.fixture
def budgets(monkeypatch):
    monkeypatch.setattr(cpu_mod, "FUSE_WORK", FUSE)
    monkeypatch.setattr(jit_mod, "JIT_WORK", PROMOTE)


def loop(length: int, entries: int):
    """A loop whose body is one superblock run of ``length``
    instructions (operates, then the back-edge branch), entered
    ``entries`` times through its head ``loop``.  Every other run in
    the program is entered once."""
    adds = "\n".join(["        addq t9, 1, t9"] * (length - 2))
    return build(f"""
        li   t0, {entries}
        clr  t9
        .globl loop
loop:
{adds}
        subq t0, 1, t0
        bne  t0, loop
""")


def entry_reaching(work: int, length: int) -> int:
    """The first entry of a ``length``-instruction head on which its
    earlier entries have retired at least ``work`` instructions."""
    return -(-work // length) + 1


def run(module, **kw) -> Machine:
    """Run ``module`` and check its state against the fuse=False run."""
    machine = Machine(module, **kw)
    machine.run()
    plain = Machine(module, fuse=False, jit=False)
    plain.run()
    assert machine_state(machine) == machine_state(plain)
    return machine


def head_of(machine: Machine, label: str) -> int:
    cpu = machine.cpu
    head = cpu._index_of(machine.module.symtab[label].value)
    assert head in cpu._runs
    return head


@pytest.mark.usefixtures("budgets")
@pytest.mark.parametrize("length,fuse_at,promote_at",
                         [(2, 41, 201), (40, 3, 11)])
def test_fuse_and_promote_on_the_entry_their_work_is_reached(
        length, fuse_at, promote_at):
    """The budgets are in retired instructions: the same work takes a
    2-instruction head twenty times the entries a 40-instruction head
    needs."""
    assert fuse_at == entry_reaching(FUSE, length)
    assert promote_at == entry_reaching(PROMOTE, length)
    for jit in (False, True):
        before = run(loop(length, fuse_at - 1), jit=jit).cpu
        on = run(loop(length, fuse_at), jit=jit).cpu
        assert (before.sb_compiled, on.sb_compiled) == (0, 1)
    before = run(loop(length, promote_at - 1), jit=True).cpu
    on = run(loop(length, promote_at), jit=True).cpu
    assert (before.jit.promoted, on.jit.promoted) == (0, 1)
    assert before.sb_compiled == on.sb_compiled == 1


@pytest.mark.parametrize("patched", [True, False], ids=["small", "default"])
@pytest.mark.parametrize("length", [2, 40])
def test_head_under_budget_builds_nothing(length, patched, monkeypatch):
    """A head whose retired work stays under ``FUSE_WORK`` builds no
    fused executor and no region: its slot still holds the counter."""
    if patched:
        monkeypatch.setattr(cpu_mod, "FUSE_WORK", FUSE)
        monkeypatch.setattr(jit_mod, "JIT_WORK", PROMOTE)
    entries = entry_reaching(cpu_mod.FUSE_WORK, length) - 1
    machine = run(loop(length, entries), jit=True)
    cpu = machine.cpu
    head = head_of(machine, "loop")
    assert cpu.sb_compiled == 0
    assert cpu.jit._fused == {}
    assert not any(cpu.jit_stats().values())
    assert cpu._dispatch[head].__name__ == "counting"


@pytest.mark.usefixtures("budgets")
def test_fused_executor_replaces_counter_without_jit():
    fuse_at = entry_reaching(FUSE, 2)
    fused = run(loop(2, fuse_at + 5), jit=False)
    head = head_of(fused, "loop")
    executor = fused.cpu._dispatch[head]
    assert executor.__code__.co_filename.startswith("<superblock@")
    assert fused.cpu.sb_compiled == 1
    # With the JIT on, the counter keeps the slot and runs the memoized
    # executor until the head promotes.
    warm = run(loop(2, fuse_at + 5), jit=True)
    assert warm.cpu._dispatch[head].__name__ == "counting"
    assert warm.cpu.jit._fused[head].__code__.co_filename \
        .startswith("<superblock@")


@pytest.mark.usefixtures("budgets")
def test_evicted_head_repromotes_without_second_walk():
    """Two loops alternating under a one-region cache: each promotion
    evicts the other loop's region, and the evicted head resumes on its
    fused executor.  Each head walks its per-instruction closures only
    until it first fuses, and is fused only once."""
    hot = 200
    module = build(f"""
        li   s5, 6
        clr  t9
outer:  li   t0, {hot}
        .globl lA
lA:     addq t9, 1, t9
        subq t0, 1, t0
        bne  t0, lA
{chain('sa', MAX_BLOCKS + 2)}
        li   t1, {hot}
        .globl lB
lB:     addq t9, 2, t9
        subq t1, 1, t1
        bne  t1, lB
{chain('sb', MAX_BLOCKS + 2)}
        subq s5, 1, s5
        bgt  s5, outer
        and  t9, 0xff, t9
""")
    machine = Machine(module, jit=True)
    cpu = machine.cpu
    cpu.jit.cache_cap = 1
    walks: dict[int, int] = {}
    step_run = cpu._step_run

    def counted(start, end, term):
        walks[start] = walks.get(start, 0) + 1
        return step_run(start, end, term)
    cpu._step_run = counted
    machine.run()
    plain = Machine(module, fuse=False, jit=False)
    plain.run()
    assert machine_state(machine) == machine_state(plain)

    stats = cpu.jit_stats()
    assert stats["jit_regions"] > 4
    assert stats["jit_evictions"] >= stats["jit_regions"] - 1
    heads = [head_of(machine, "lA"), head_of(machine, "lB")]
    assert cpu.sb_compiled == len(cpu.jit._fused) == 2
    for head in heads:
        assert walks[head] == entry_reaching(FUSE, 3) - 1
