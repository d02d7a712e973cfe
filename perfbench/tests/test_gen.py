"""The seeded generator: same seed, same ops; enough distinct work."""

from collections import Counter

import pytest

from perfbench import fig5, fig6, gen, menus as M, serve_mix


def take(rounds, n):
    """The first ``n`` rounds of a stream."""
    return [next(rounds) for _ in range(n)]


#: Each workload's stream and the rounds an untraced run performs.
STREAMS = {
    "fig5-instrument": (gen.fig5_rounds, fig5.ROUNDS),
    "fig6-run": (gen.fig6_rounds, fig6.ROUNDS),
    "serve-mix": (gen.serve_rounds, serve_mix.ROUNDS),
}


def runs_of(name, rounds):
    """(workload, scale argument) of every program run the ops imply."""
    if name == "fig5-instrument":
        return [(c.workload, M.SCALE_ARGS[c.workload][0])
                for rnd in rounds for c in rnd]
    if name == "fig6-run":
        return [(op.workload, op.arg) for rnd in rounds for op in rnd]
    return [(r.workload, r.arg) for rnd in rounds for step in rnd
            for r in step]


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_same_seed_same_ops_other_seed_other_ops(name):
    stream, rounds = STREAMS[name]
    first = take(stream(11), rounds)
    assert take(stream(11), rounds) == first
    other = take(stream(12), rounds)
    assert other != first
    for ops in (first, other):             # ... drawn from the same menus
        for workload, arg in runs_of(name, ops):
            assert arg in M.SCALE_ARGS[workload]


def test_fig5_rounds_balanced_and_mostly_distinct():
    rounds = take(gen.fig5_rounds(3), fig5.ROUNDS)
    for r, rnd in enumerate(rounds):
        assert sorted(c.tool for c in rnd) == sorted(M.TOOLS)
        assert {c.opt for c in rnd} == {M.OPTS[r % 2]}
    assert sorted((c.tool, c.opt) for c in rounds[0] + rounds[1]) == \
        sorted((t, o) for t in M.TOOLS for o in M.OPTS)
    cells = [c for rnd in rounds for c in rnd]
    distinct = set(cells)
    assert len(cells) >= M.MIN_OPS
    assert len(distinct) >= 0.8 * len(cells)
    assert len(distinct) < len(cells), "a run must repeat some cells"
    # The output check covers every tool once, half at each opt, with
    # cells of rounds 0 and 1.
    check = gen.fig5_check_cells(3)
    assert sorted(c.tool for c in check) == sorted(M.TOOLS)
    assert [sum(c.opt == o for c in check) for o in M.OPTS] == [6, 6]
    assert set(check) <= set(rounds[0] + rounds[1])


def test_fig6_covers_every_tool_at_both_opts_with_matched_baselines():
    cells = gen.fig6_cells(5)
    assert sorted((c.tool, c.opt) for c in cells) == \
        sorted((t, o) for t in M.TOOLS for o in M.OPTS)
    assert all(c.workload in M.LIGHT for c in cells)
    rounds = take(gen.fig6_rounds(5), fig6.ROUNDS)
    assert {op.cell for rnd in rounds for op in rnd if op.cell} == \
        set(cells)
    ops = [op for rnd in rounds for op in rnd]
    assert len(ops) >= M.MIN_OPS
    for op in ops:
        if op.cell is not None:
            assert gen.RunOp(None, op.workload, op.arg) in ops
    args = {(op.workload, op.arg) for op in ops if op.cell is None}
    assert len(args) >= 25
    # Both short runs (set-up bound) and long runs (dispatch bound).
    assert {M.SCALE_ARGS[w].index(a) for w, a in args} == {0, 1, 2}


def test_serve_mix_rounds_have_a_fixed_make_up():
    rounds = take(gen.serve_rounds(9), serve_mix.ROUNDS)
    requests = [r for rnd in rounds for s in rnd for r in s]
    assert len(requests) >= M.MIN_OPS
    for rnd in rounds:
        assert len(rnd) == M.SERVE_STEPS_PER_ROUND
        assert sum(1 for a, b in rnd if a is b) == M.SERVE_PAIRED_STEPS
        distinct = [r for a, b in rnd for r in ((a,) if a is b else (a, b))]
        kinds = Counter(r.kind for r in distinct)
        assert kinds["run"] == round(len(distinct) * M.SERVE_RUN_SHARE)
    assert {r.tenant for r in requests} == set(M.TENANTS)
    evals = [r for r in requests if r.kind == "eval"]
    assert all(r.tool in M.SERVE_TOOLS and r.opt in M.OPTS for r in evals)
    # A repeat only ever names a cell its tenant saw in an earlier round,
    # and a first-seen cell is handed out once.
    seen: dict[str, set] = {t: set() for t in M.TENANTS}
    repeats = 0
    for rnd in rounds:
        fresh: dict[str, set] = {t: set() for t in M.TENANTS}
        for a, b in rnd:
            for r in ((a,) if a is b else (a, b)):
                if r.kind != "eval":
                    continue
                cell = (r.tool, r.workload, r.opt)
                if cell in seen[r.tenant]:
                    repeats += 1
                else:
                    assert cell not in fresh[r.tenant]
                    fresh[r.tenant].add(cell)
        for t in M.TENANTS:
            seen[t] |= fresh[t]
    assert repeats > 0
    assert len({(r.tool, r.workload, r.opt, r.tenant) for r in evals}) >= 15
