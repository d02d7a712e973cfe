"""Evaluation-harness plumbing tests."""

import dataclasses

from repro.eval import analysis_unit_for, apply_tool, run_instrumented, run_uninstrumented
from repro.eval import runner
from repro.tools import get_tool
from repro.workloads import build_workload


def test_analysis_unit_cached_but_fresh():
    tool = get_tool("malloc")
    a = analysis_unit_for(tool)
    b = analysis_unit_for(tool)
    assert a is not b                 # fresh objects
    assert a.to_bytes() == b.to_bytes()
    assert a.symtab.get("MallocCall") is not None


def test_analysis_cache_keyed_by_content_not_name():
    """Two tools sharing a name but differing in analysis source must not
    share a compiled unit (regression: the cache was keyed on name)."""
    malloc = get_tool("malloc")
    imposter = dataclasses.replace(
        malloc, analysis_source=get_tool("io").analysis_source)
    first = analysis_unit_for(malloc)
    second = analysis_unit_for(imposter)
    assert first.symtab.get("MallocCall") is not None
    assert second.symtab.get("MallocCall") is None     # io's unit, not a
    assert first.to_bytes() != second.to_bytes()       # stale cached copy


def test_analysis_cache_sees_source_changes():
    """The same tool object with edited source gets a fresh unit."""
    tool = get_tool("malloc")
    baseline = analysis_unit_for(tool)
    edited = dataclasses.replace(
        tool, analysis_source=tool.analysis_source + "\nlong __extra;\n")
    fresh = analysis_unit_for(edited)
    assert fresh.symtab.get("__extra") is not None
    assert baseline.symtab.get("__extra") is None


def test_analysis_cache_size_capped(monkeypatch):
    monkeypatch.setattr(runner, "_ANALYSIS_CACHE_CAP", 2)
    monkeypatch.setattr(runner, "_analysis_cache", {})
    tool = get_tool("malloc")
    for i in range(3):
        variant = dataclasses.replace(
            tool, analysis_source=tool.analysis_source + "\n" * (i + 1))
        analysis_unit_for(variant)
    assert len(runner._analysis_cache) <= 2


def test_apply_and_run():
    app = build_workload("fileio")
    tool = get_tool("io")
    base = run_uninstrumented(app)
    res = apply_tool(app, tool)
    out = run_instrumented(res)
    assert out.stdout == base.stdout
    assert tool.output_file in out.files


def test_apply_tool_opt_levels():
    from repro.atom import OptLevel
    app = build_workload("fileio")
    tool = get_tool("malloc")
    for level in (OptLevel.O0, OptLevel.O2):
        res = apply_tool(app, tool, opt=level)
        out = run_instrumented(res)
        assert out.status == 0


def test_apply_tool_decodes_analysis_unit_once(monkeypatch):
    """The in-process blob goes to the instrumenter serialized, and the
    instrumenter prepares it once per process: with the memo empty, the
    first rewrite decodes the blob once (not a decode plus a defensive
    re-encode and decode), and a second program with the same tool and
    opt level reuses the prepared unit without decoding the blob."""
    from repro.atom import instrument
    from repro.objfile.module import Module
    monkeypatch.setattr(instrument, "_prepared", {})
    tool = get_tool("io")
    blob = analysis_unit_for(tool, cache=None).to_bytes()
    decoded = []
    real = Module.from_bytes.__func__

    def counting(cls, data):
        if bytes(data) == blob:
            decoded.append(len(data))
        return real(cls, data)

    monkeypatch.setattr(Module, "from_bytes", classmethod(counting))
    apply_tool(build_workload("fileio"), tool, cache=None)
    assert len(decoded) == 1
    apply_tool(build_workload("li"), tool, cache=None)
    assert len(decoded) == 1


def test_runners_accept_and_ignore_jit():
    """perfbench/fig5.py passes ``jit=False`` to both runners; the
    keyword outlived the region tier and must keep changing nothing."""
    app = build_workload("fib")
    res = apply_tool(app, get_tool("prof"))
    assert run_uninstrumented(app, args=("10",), jit=False) == \
        run_uninstrumented(app, args=("10",))
    assert run_instrumented(res, args=("10",), jit=False) == \
        run_instrumented(res, args=("10",))


def test_run_result_jit_stats_is_always_none():
    """perfbench/fig6.py's traced mode reads ``RunResult.jit_stats`` and
    reports 0 for every ``machine.jit_*`` counter when it is None."""
    app = build_workload("fib")
    res = apply_tool(app, get_tool("prof"))
    assert run_uninstrumented(app, args=("10",)).jit_stats is None
    assert run_instrumented(res, args=("10",)).jit_stats is None
