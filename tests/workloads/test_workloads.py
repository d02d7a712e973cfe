"""Workload suite tests: all 20 programs build, run, and are deterministic."""

import pytest

from repro.workloads import WORKLOAD_NAMES, build_workload, load_source, run_workload


def test_twenty_workloads():
    assert len(WORKLOAD_NAMES) == 20
    assert len(set(WORKLOAD_NAMES)) == 20


def test_unknown_workload_rejected():
    with pytest.raises(KeyError):
        load_source("doom")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_runs_clean(name):
    result = run_workload(name)
    assert result.status == 0, result.stderr
    assert result.stdout.startswith(name.encode()[:3]) or result.stdout
    assert result.inst_count > 10_000        # substantial work happened


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_deterministic(name):
    a = run_workload(name)
    b = run_workload(name)
    assert a.stdout == b.stdout
    assert a.cycles == b.cycles
    assert a.inst_count == b.inst_count


def test_scale_argument():
    small = run_workload("quick", args=("200",))
    big = run_workload("quick", args=("800",))
    assert small.status == big.status == 0
    assert small.inst_count < big.inst_count


def test_profiles_are_diverse():
    """The suite should cover memory-, branch-, and call-heavy shapes."""
    from repro.om import build_ir

    mem_frac = {}
    for name in ("matrix", "bitops", "fib"):
        exe = build_workload(name)
        prog = build_ir(exe)
        total = mem = 0
        for proc in prog.procs:
            for ir in proc.instructions():
                total += 1
                if ir.inst.is_memory_ref():
                    mem += 1
        mem_frac[name] = mem / total
    # matrix is distinctly more memory-bound than bitops in its kernels;
    # the static fraction is a weak proxy, so just check spread exists.
    assert max(mem_frac.values()) - min(mem_frac.values()) > 0.0


def test_workload_cache_returns_fresh_modules():
    a = build_workload("sieve")
    b = build_workload("sieve")
    assert a is not b
    assert a.to_bytes() == b.to_bytes()
