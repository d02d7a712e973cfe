"""Tracing threaded through the real pipeline, serial and parallel.

The acceptance scenario: a traced matrix run yields one ``task`` span
per cell with the nested instrument/interpret phase spans — including
spans recorded inside forked worker processes and merged back through
``TaskResult.trace`` — and the result exports as valid Chrome trace
JSON.
"""

import json
import os

import pytest

from repro.eval import parallel
from repro.eval.parallel import TaskSpec, execute_task, run_matrix
from repro.obs import TRACE, to_chrome


@pytest.fixture
def traced(tmp_path, monkeypatch):
    """An enabled global tracer over a private artifact cache."""
    monkeypatch.setenv("WRL_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("WRL_CACHE", raising=False)
    parallel._base_memo.clear()          # force fresh base runs
    TRACE.reset()
    TRACE.enable()
    yield TRACE
    TRACE.disable()
    TRACE.reset()


def _span_names(tracer):
    return [e["name"] for e in tracer.events]


def test_serial_matrix_records_task_and_phase_spans(traced, tmp_path):
    specs = [TaskSpec(tool="prof", workload="fib"),
             TaskSpec(tool="dyninst", workload="fib")]
    records = run_matrix(specs, jobs=0,
                         cache_spec=str(tmp_path / "cache"))
    assert all(rec.status == "ok" for rec in records)
    names = _span_names(traced)
    assert names.count("task") == len(specs)
    # The instrument and interpret phases nest under the tasks.
    assert "apply_tool" in names
    assert "interpret.base" in names
    assert "interpret.instrumented" in names
    assert "instrument.lowering" in names
    # Serial records never ship a snapshot: events went straight into
    # the ambient tracer.
    assert all(rec.trace is None for rec in records)
    assert traced.counters.get("machine.runs", 0) >= 2


def test_parallel_matrix_merges_worker_spans(traced, tmp_path):
    specs = [TaskSpec(tool="prof", workload="fib"),
             TaskSpec(tool="dyninst", workload="fib")]
    records = run_matrix(specs, jobs=2,
                         cache_spec=str(tmp_path / "cache"))
    assert all(rec.status == "ok" for rec in records)
    names = _span_names(traced)
    assert names.count("task") == len(specs)
    assert "interpret.instrumented" in names
    # Worker pids appear in the merged events alongside the parent's.
    task_pids = {e["pid"] for e in traced.events if e["name"] == "task"}
    assert os.getpid() not in task_pids
    # Snapshots were merged then stripped from the records.
    assert all(rec.trace is None for rec in records)

    doc = to_chrome(traced.snapshot())
    json.dumps(doc)                      # serializes cleanly
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in spans} >= {"task", "apply_tool",
                                          "interpret.instrumented"}


def test_worker_capture_ships_snapshot_when_not_owned(tmp_path):
    """``execute_task(trace=True)`` in a process that does not own the
    ambient tracer (a pool worker after fork) starts a private capture
    and returns it in ``TaskResult.trace``."""
    assert not TRACE.enabled
    parallel._base_memo.clear()          # force a fresh base run
    spec = TaskSpec(tool="prof", workload="fib")
    rec = execute_task(spec, str(tmp_path / "cache"), True)
    assert rec.status == "ok"
    assert rec.trace is not None
    names = [e["name"] for e in rec.trace["events"]]
    assert "task" in names and "interpret.base" in names
    # The capture was torn down again: the ambient tracer stays off.
    assert not TRACE.enabled and TRACE.events == []


def test_untraced_run_leaves_no_events(tmp_path):
    assert not TRACE.enabled
    rec = execute_task(TaskSpec(tool="prof", workload="fib"),
                       str(tmp_path / "cache"), False)
    assert rec.status == "ok"
    assert rec.trace is None
    assert TRACE.events == []


def test_saves_span_reads_miss_then_hit(traced, monkeypatch):
    """Two rewrites of different programs with one tool and one opt
    level: the first prepares the analysis unit, the second reuses it,
    and the ``instrument.saves`` span and the counters say which."""
    from repro.atom import instrument
    from repro.eval import apply_tool
    from repro.tools import get_tool
    from repro.workloads import build_workload
    monkeypatch.setattr(instrument, "_prepared", {})
    tool = get_tool("prof")
    for workload in ("fib", "sieve"):
        apply_tool(build_workload(workload), tool, cache=None)
    saves = [e["args"]["prepared"] for e in traced.events
             if e["name"] == "instrument.saves"]
    assert saves == ["miss", "hit"]
    assert traced.counters["atom.prepared.misses"] == 1
    assert traced.counters["atom.prepared.hits"] == 1


def test_load_and_run_spans_split_interpretation(traced):
    """``run_module`` records the load as its own ``machine.load`` span
    (with the text's instruction count) beside ``machine.run`` (with the
    number of closures the run built), so a summary splits load from
    execution; the run builds closures only for code that executed."""
    from repro.machine import run_module
    from repro.obs.cli import span_rows
    from repro.workloads import build_workload
    module = build_workload("fib")
    result = run_module(module)
    events = {e["name"]: e for e in traced.events}
    load, run = events["machine.load"], events["machine.run"]
    text_insts = len(module.section(".text").data) // 4
    assert load["cat"] == run["cat"] == "interpret"
    assert load["args"]["text_insts"] == text_insts
    assert load["ts_ns"] + load["dur_ns"] <= run["ts_ns"]
    built = run["args"]["closures_built"]
    assert 0 < built < text_insts
    assert built <= result.inst_count
    assert traced.counters["cpu.closures_built"] == built
    labels = [label for label, _ in span_rows(traced.snapshot())]
    assert "interpret/machine.load" in labels
    assert "interpret/machine.run" in labels


def test_run_span_counts_superblock_compiles(traced, early_tiers):
    """The ``machine.run`` span and the ``cpu.*`` counters say how many
    superblocks a run fused and how many of those it took from the
    shared code cache instead of ``compile()``, so a trace shows the
    compile work a run did.  A second run of the same executable
    compiles nothing."""
    from repro.machine import cpu, run_module
    from repro.workloads import build_workload
    module = build_workload("fib")
    cpu._SB_CACHE.clear()
    run_module(module)
    run_module(module)
    runs = [e["args"] for e in traced.events if e["name"] == "machine.run"]
    assert len(runs) == 2
    first, second = runs
    assert first["sb_compiled"] > first["sb_cache_hits"]
    assert second["sb_compiled"] == second["sb_cache_hits"] >= 1
    for key, counter in (("sb_compiled", "cpu.superblocks_compiled"),
                         ("sb_cache_hits", "cpu.sb_cache_hits")):
        assert traced.counters[counter] == first[key] + second[key]
