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
    rec = execute_task(spec, str(tmp_path / "cache"), True, True)
    assert rec.status == "ok"
    assert rec.trace is not None
    names = [e["name"] for e in rec.trace["events"]]
    assert "task" in names and "interpret.base" in names
    # The capture was torn down again: the ambient tracer stays off.
    assert not TRACE.enabled and TRACE.events == []


def test_untraced_run_leaves_no_events(tmp_path):
    assert not TRACE.enabled
    rec = execute_task(TaskSpec(tool="prof", workload="fib"),
                       str(tmp_path / "cache"), True, False)
    assert rec.status == "ok"
    assert rec.trace is None
    assert TRACE.events == []


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


def test_run_span_counts_region_compiles(traced, early_tiers):
    """The ``machine.run`` span and the ``cpu.*`` counters say how many
    regions a run compiled with ``compile()`` and how many it took from
    the shared code cache, so a trace shows the compile work a run did.
    A second run of the same executable compiles nothing."""
    from repro.machine import jit, run_module
    from repro.workloads import build_workload
    module = build_workload("fib")
    jit._JIT_CACHE.clear()
    results = [run_module(module), run_module(module)]
    runs = [e for e in traced.events if e["name"] == "machine.run"]
    assert len(runs) == 2
    for event, result in zip(runs, results):
        for key in ("jit_regions", "jit_compiled", "jit_cache_hits"):
            assert event["args"][key] == result.jit_stats[key]
    first, second = (r.jit_stats for r in results)
    assert first["jit_compiled"] >= 1
    assert second["jit_compiled"] == 0
    assert second["jit_cache_hits"] == second["jit_regions"] >= 1
    for key in ("jit_regions", "jit_compiled", "jit_cache_hits",
                "jit_evictions", "jit_denied"):
        assert traced.counters[f"cpu.{key}"] == first[key] + second[key]
