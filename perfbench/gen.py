"""Seeded load generator: every op a run performs comes from here.

Each workload's ops form an endless sequence of *rounds*.  A round is
balanced by construction (fig5-instrument: every tool once, at one
opt; fig6-run: every tool once, with its matched baseline; serve-mix: a
fixed number of steps per client), so a run that stops after any whole
number of rounds sees the same mix as every other run.  Two seeds
differ only in which workload and argument fill each slot and in the
order of the ops.

Generation is pure: it imports nothing from the program under test.
"""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple

from . import menus as M


class Cell(NamedTuple):
    """One instrumentation cell: a tool applied to a workload at an opt."""

    tool: str
    workload: str
    opt: str


class RunOp(NamedTuple):
    """One fig6-run op: run ``cell`` (or, when None, the plain
    ``workload`` executable) with one scale argument."""

    cell: Cell | None
    workload: str
    arg: str


class Request(NamedTuple):
    """One serve-mix request.  ``tool``/``opt`` are empty for ``run``."""

    kind: str
    tenant: str
    workload: str
    arg: str
    tool: str = ""
    opt: str = ""


#: One serve-mix step: the requests client 0 and client 1 send.  The
#: two are the same object when the step is paired.
Step = tuple[Request, Request]


def rng_for(workload: str, seed: int, *salt) -> random.Random:
    """A private stream per (workload, seed, salt): string seeds hash
    the same in every process, whatever PYTHONHASHSEED says."""
    return random.Random("/".join(map(str, ("perfbench", workload, seed)
                                      + salt)))


def deck(rng: random.Random, items) -> Iterator:
    """Endless draws from ``items`` in successive seeded shuffles: every
    pass uses each item once, so any stretch of draws is near-balanced
    where independent draws would drift."""
    while True:
        batch = list(items)
        rng.shuffle(batch)
        yield from batch


def balanced_cells(rng: random.Random) -> list[Cell]:
    """Every tool at O1 and at O4, on a shuffle of the fixed lists."""
    o1 = list(M.O1_WORKLOADS)
    o4 = list(M.O4_WORKLOADS)
    rng.shuffle(o1)
    rng.shuffle(o4)
    return [Cell(t, w, "O1") for t, w in zip(M.TOOLS, o1)] + \
        [Cell(t, w, "O4") for t, w in zip(M.TOOLS, o4)]


# ---- fig5-instrument ------------------------------------------------------

def fig5_rounds(seed: int) -> Iterator[list[Cell]]:
    """Rounds of 12 cells, one per tool: even rounds at O1, odd at O4.

    Rounds 0 and 1 are the balanced set, and hold the cells the run's
    output check executes.  Later rounds deal each tool a
    workload from a deck of all twenty programs, except that one tool
    per round repeats its cell from round 0 or 1, so every run rewrites
    some cells twice and can check that the two outputs are
    byte-identical.
    """
    rng = rng_for("fig5-instrument", seed)
    first = balanced_cells(rng)
    by_opt = {opt: [c for c in first if c.opt == opt] for opt in M.OPTS}
    workloads = deck(rng, M.WORKLOADS)
    r = 0
    while True:
        opt = M.OPTS[r % 2]
        if r < 2:
            cells = list(by_opt[opt])
        else:
            cells = [Cell(t, next(workloads), opt) for t in M.TOOLS]
            k = (r - 2) % len(M.TOOLS)
            cells[k] = by_opt[opt][k]
        rng.shuffle(cells)
        yield cells
        r += 1


def fig5_check_cells(seed: int) -> list[Cell]:
    """The cells the run's output check executes: one per tool, from
    rounds 0 and 1, the k-th tool of ``TOOLS`` at ``OPTS[k % 2]``, so
    every seed checks the same tools at the same opts."""
    cells = {(c.tool, c.opt): c
             for c in balanced_cells(rng_for("fig5-instrument", seed))}
    return [cells[(tool, M.OPTS[k % 2])] for k, tool in enumerate(M.TOOLS)]


# ---- fig6-run -------------------------------------------------------------

def fig6_cells(seed: int) -> list[Cell]:
    """The 24 instrumented executables a fig6-run setup builds."""
    return balanced_cells(rng_for("fig6-run", seed, "cells"))


def fig6_rounds(seed: int) -> Iterator[list[RunOp]]:
    """Rounds of 60 runs.

    Each round runs every tool once, at O1 or O4 (the choice flips every
    round, so two rounds cover all 24 cells), at its workload's short
    argument, next to the plain executable at the same argument; the
    pair gives the cycle ratio.  ``FIG6_EXTRA_RUNS`` plain runs at the
    short, mid and long arguments of programs dealt from a deck complete
    the round.
    """
    rng = rng_for("fig6-run", seed)
    by_slot = {(c.tool, c.opt): c for c in fig6_cells(seed)}
    apps = deck(rng, sorted({c.workload for c in by_slot.values()}))
    flip = {t: rng.randrange(2) for t in M.TOOLS}
    r = 0
    while True:
        ops = []
        for tool in M.TOOLS:
            cell = by_slot[(tool, M.OPTS[(r + flip[tool]) % 2])]
            arg = M.SCALE_ARGS[cell.workload][0]
            ops.append(RunOp(cell, cell.workload, arg))
            ops.append(RunOp(None, cell.workload, arg))
        for size, count in enumerate(M.FIG6_EXTRA_RUNS):
            for _ in range(count):
                w = next(apps)
                ops.append(RunOp(None, w, M.SCALE_ARGS[w][size]))
        rng.shuffle(ops)
        yield ops
        r += 1


# ---- serve-mix --------------------------------------------------------------

def serve_rounds(seed: int) -> Iterator[list[Step]]:
    """Rounds of ``SERVE_STEPS_PER_ROUND`` steps for the two clients.

    Every round has the same make-up: ``SERVE_PAIRED_STEPS`` paired
    steps, ``SERVE_RUN_SHARE`` of its distinct requests ``run`` and the
    rest ``eval``, tenants and programs dealt from decks.  From the second round on, half the
    evals repeat a cell their tenant saw in an earlier round (a hit:
    rounds are separated by a barrier, so the first request has
    finished); the rest ask for a cell the tenant has not seen (a miss).
    Each tenant's unseen cells come in blocks of one per tool, so every
    seed instruments the same tool mix.
    """
    rng = rng_for("serve-mix", seed)
    unseen = {t: _balanced_evals(rng) for t in M.TENANTS}
    seen: dict[str, list[tuple[str, str, str]]] = \
        {t: [] for t in M.TENANTS}
    tenants = deck(rng, M.TENANTS)
    programs = deck(rng, M.LIGHT)
    steps_n, paired_n = M.SERVE_STEPS_PER_ROUND, M.SERVE_PAIRED_STEPS
    draws = 2 * steps_n - paired_n
    runs = round(draws * M.SERVE_RUN_SHARE)
    r = 0
    while True:
        kinds = ["run"] * runs + ["eval"] * (draws - runs)
        rng.shuffle(kinds)
        repeats = [r > 0 and i % 2 == 0 for i in range(draws - runs)]
        rng.shuffle(repeats)
        fresh: dict[str, list[tuple[str, str, str]]] = \
            {t: [] for t in M.TENANTS}
        requests = []
        for kind in kinds:
            tenant = next(tenants)
            if kind == "run":
                w = next(programs)
                requests.append(Request("run", tenant, w,
                                        M.SCALE_ARGS[w][0]))
                continue
            if (repeats.pop() and seen[tenant]) or not unseen[tenant]:
                tool, w, opt = rng.choice(seen[tenant])
            else:
                tool, w, opt = unseen[tenant].pop(0)
                fresh[tenant].append((tool, w, opt))
            requests.append(Request("eval", tenant, w, M.SCALE_ARGS[w][0],
                                    tool, opt))
        paired = set(rng.sample(range(steps_n), paired_n))
        pending = iter(requests)
        steps: list[Step] = []
        for i in range(steps_n):
            if i in paired:
                req = next(pending)
                steps.append((req, req))
            else:
                steps.append((next(pending), next(pending)))
        for tenant in M.TENANTS:
            seen[tenant].extend(fresh[tenant])
        yield steps
        r += 1


def _balanced_evals(rng: random.Random) -> list[tuple[str, str, str]]:
    """Every (tool, workload, opt) eval cell once, in blocks of one cell
    per tool; block i takes workloads i..i+3 of a seeded shuffle of
    ``LIGHT`` and alternates opt every ``len(LIGHT)`` blocks."""
    ws = list(M.LIGHT)
    rng.shuffle(ws)
    n = len(ws)
    return [(tool, ws[(i + k) % n], M.OPTS[(i // n) % len(M.OPTS)])
            for i in range(n * len(M.OPTS))
            for k, tool in enumerate(M.SERVE_TOOLS)]
