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


# ---- disk-cache decode failures --------------------------------------------

@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """A fresh default store, with ``fib`` forgotten by the in-process
    memo so ``build_workload`` consults the disk."""
    from repro import workloads
    from repro.eval.cache import executable_key, get_default_cache
    monkeypatch.setenv("WRL_CACHE_DIR", str(tmp_path))
    monkeypatch.delitem(workloads._exe_cache, "fib", raising=False)
    cache = get_default_cache()
    key = executable_key((load_source("fib"),), "fib")
    return cache, key


def test_garbage_blob_is_counted_corrupt_and_recompiled(cold_cache):
    from repro import workloads
    cache, key = cold_cache
    cache.put(key, b"digest-valid but not a WOF module")
    before = cache.stats.corrupt
    module = build_workload("fib")
    assert cache.stats.corrupt == before + 1
    # The recompiled executable replaced the bad blob: the next cold
    # lookup decodes it without another corruption.
    del workloads._exe_cache["fib"]
    again = build_workload("fib")
    assert cache.stats.corrupt == before + 1
    assert again.to_bytes() == module.to_bytes()
    assert run_workload("fib").status == 0


def test_decoder_bug_propagates_not_swallowed(cold_cache, monkeypatch):
    """Regression: the disk-cache check caught blanket ``Exception``, so a
    programming error in the decoder became a silent recompile.  Only
    ``runner._DECODE_ERRORS`` count as a corrupt blob."""
    from repro.objfile.module import Module
    cache, key = cold_cache
    planted = b"the decoder breaks on this blob only"
    cache.put(key, planted)
    decode = Module.from_bytes

    def broken(cls, blob):
        if blob == planted:
            raise TypeError("decoder bug")
        return decode(blob)

    monkeypatch.setattr(Module, "from_bytes", classmethod(broken))
    with pytest.raises(TypeError, match="decoder bug"):
        build_workload("fib")
    assert cache.stats.corrupt == 0
