"""Tier-up policy: a superblock head climbs from per-instruction
closures to its fused executor by the work retired through it, not by
how often it was entered.

A head's one counter adds the run's static length on every entry.  The
first entry on which the work retired by earlier entries has reached
``FUSE_WORK`` compiles the fused executor, which then replaces the
counter.  The budget is patched small here so the entry arithmetic is
visible, and every case checks that architectural state equals the
``fuse=False`` run.
"""

import pytest

from repro.machine import cpu as cpu_mod
from repro.machine.loader import Machine

from .test_superblocks import build, machine_state

FUSE = 80


@pytest.fixture
def budgets(monkeypatch):
    monkeypatch.setattr(cpu_mod, "FUSE_WORK", FUSE)


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


def run(module) -> Machine:
    """Run ``module`` fused and check its state against the fuse=False
    run."""
    machine = Machine(module)
    machine.run()
    plain = Machine(module, fuse=False)
    plain.run()
    assert machine_state(machine) == machine_state(plain)
    return machine


def head_of(machine: Machine, label: str) -> int:
    cpu = machine.cpu
    head = cpu._index_of(machine.module.symtab[label].value)
    assert head in cpu._runs
    return head


@pytest.mark.usefixtures("budgets")
@pytest.mark.parametrize("length,fuse_at", [(2, 41), (40, 3)])
def test_fuse_on_the_entry_its_work_is_reached(length, fuse_at):
    """The budget is in retired instructions: the same work takes a
    2-instruction head twenty times the entries a 40-instruction head
    needs."""
    assert fuse_at == entry_reaching(FUSE, length)
    before = run(loop(length, fuse_at - 1)).cpu
    on = run(loop(length, fuse_at)).cpu
    assert (before.sb_compiled, on.sb_compiled) == (0, 1)


@pytest.mark.parametrize("patched", [True, False], ids=["small", "default"])
@pytest.mark.parametrize("length", [2, 40])
def test_head_under_budget_builds_nothing(length, patched, monkeypatch):
    """A head whose retired work stays under ``FUSE_WORK`` builds no
    fused executor: its slot still holds the counter."""
    if patched:
        monkeypatch.setattr(cpu_mod, "FUSE_WORK", FUSE)
    entries = entry_reaching(cpu_mod.FUSE_WORK, length) - 1
    machine = run(loop(length, entries))
    cpu = machine.cpu
    head = head_of(machine, "loop")
    assert cpu.sb_compiled == 0
    assert cpu._dispatch[head].__name__ == "counting"


@pytest.mark.usefixtures("budgets")
def test_fused_executor_replaces_counter_without_jit():
    """Once fused, a head's slot holds the fused executor itself: later
    entries pay no counter, and the head is compiled exactly once."""
    fuse_at = entry_reaching(FUSE, 2)
    fused = run(loop(2, fuse_at + 5))
    head = head_of(fused, "loop")
    executor = fused.cpu._dispatch[head]
    assert executor.__code__.co_filename.startswith("<superblock@")
    assert fused.cpu.sb_compiled == 1
