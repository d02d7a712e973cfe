"""Regression tests for retry bookkeeping in ``run_matrix``.

The bug: one crashing worker breaks the whole ``ProcessPoolExecutor``,
so *every* sibling future raises ``BrokenProcessPool`` — and the old
loop charged each of them a retry attempt, so innocent tasks could be
quarantined as ``worker process died`` just for sharing a pool with a
crasher.  Now a batch break charges nobody; the implicated tasks are
probed one at a time, and only a task that breaks the pool while alone
in flight consumes an attempt.

The injected faults are module-level functions (picklable by reference)
that replace ``parallel.execute_task`` via monkeypatch; worker
processes see the patch because the pool forks them from the patched
parent.
"""

import os
import time

import pytest

from repro.eval import parallel
from repro.eval.parallel import TaskSpec, run_matrix

#: Task ids the injected fault functions key on (module globals reach
#: the workers through fork).
_CRASH_ID = "crash:fib:O1:linked"
_WEDGE_ID = "wedge:fib:O1:linked"


def _fake_result(spec: TaskSpec) -> parallel.TaskResult:
    return parallel.TaskResult(
        tool=spec.tool, workload=spec.workload, opt=spec.opt,
        heap_mode=spec.heap_mode, base_status=0, base_cycles=100,
        base_insts=10, instr_status=0, instr_cycles=200, instr_insts=20,
        points=1, calls_added=1, pristine=True,
        stdout_sha="s", files_sha="f")


def _crash_or_run(spec, cache_spec=None, trace=False, trace_id=None):
    if spec.task_id == _CRASH_ID:
        time.sleep(0.15)                # let innocent siblings start
        os._exit(1)                     # hard crash: breaks the pool
    time.sleep(0.4)                     # stay in flight across the break
    return _fake_result(spec)


def _wedge_or_run(spec, cache_spec=None, trace=False, trace_id=None):
    if spec.task_id == _WEDGE_ID:
        time.sleep(600)                 # wedged past any wall timeout
    time.sleep(0.4)                     # keep innocents in flight
    return _fake_result(spec)


def _flaky_once(spec, cache_spec=None, trace=False, trace_id=None):
    rec = _fake_result(spec)
    if spec.tool == "flaky" and not os.path.exists(_flaky_marker):
        with open(_flaky_marker, "w") as fh:
            fh.write("tripped")
        rec.status = "error"
        rec.error = "transient"
    return rec


_flaky_marker = ""


@pytest.fixture
def specs_with_crasher():
    return [TaskSpec(tool="prof", workload="fib"),
            TaskSpec(tool="crash", workload="fib"),
            TaskSpec(tool="dyninst", workload="fib"),
            TaskSpec(tool="gprof", workload="fib")]


def test_innocent_siblings_do_not_burn_attempts(monkeypatch,
                                                specs_with_crasher):
    """THE regression: with retries=1, the innocents that shared a pool
    with the crasher must come back ok at attempts=1 — before the fix
    they were charged an attempt per pool break."""
    monkeypatch.setattr(parallel, "execute_task", _crash_or_run)
    records = run_matrix(specs_with_crasher, jobs=2, retries=1)
    by_tool = {rec.tool: rec for rec in records}
    guilty = by_tool["crash"]
    assert guilty.status == "error" and guilty.quarantined
    assert guilty.error == "worker process died"
    assert guilty.attempts == 2          # 1 try + 1 retry, both its own
    for tool in ("prof", "dyninst", "gprof"):
        rec = by_tool[tool]
        assert rec.status == "ok" and not rec.quarantined, rec.error
        assert rec.attempts == 1, \
            f"{tool} was charged for the crasher's pool break"


def test_crasher_quarantined_without_retries(monkeypatch,
                                             specs_with_crasher):
    """retries=0: the solo probe's break is definitive on the first
    attempt; innocents still complete."""
    monkeypatch.setattr(parallel, "execute_task", _crash_or_run)
    records = run_matrix(specs_with_crasher, jobs=2, retries=0)
    by_tool = {rec.tool: rec for rec in records}
    assert by_tool["crash"].status == "error"
    assert by_tool["crash"].error == "worker process died"
    assert by_tool["crash"].attempts == 1
    for tool in ("prof", "dyninst", "gprof"):
        assert by_tool[tool].status == "ok"
        assert by_tool[tool].attempts == 1


def test_results_return_in_spec_order_after_pool_breaks(
        monkeypatch, specs_with_crasher):
    monkeypatch.setattr(parallel, "execute_task", _crash_or_run)
    records = run_matrix(specs_with_crasher, jobs=2, retries=0)
    assert [rec.tool for rec in records] == \
        [spec.tool for spec in specs_with_crasher]


def test_error_retry_still_consumes_attempts(monkeypatch, tmp_path):
    """An in-worker *error* (no crash) is the task's own fault and keeps
    consuming attempts, in parallel mode too."""
    global _flaky_marker
    _flaky_marker = str(tmp_path / "tripped")
    monkeypatch.setattr(parallel, "execute_task", _flaky_once)
    specs = [TaskSpec(tool="flaky", workload="fib"),
             TaskSpec(tool="prof", workload="fib")]
    records = run_matrix(specs, jobs=2, retries=2)
    flaky, steady = records
    assert flaky.status == "ok" and flaky.attempts == 2
    assert steady.status == "ok" and steady.attempts == 1


def test_wall_timeout_charges_only_the_overdue_task(monkeypatch):
    """Wall-timeout coverage: the wedged task is quarantined exactly
    once; in-flight innocents are requeued without losing an attempt
    and their records match a serial run bit for bit."""
    monkeypatch.setattr(parallel, "execute_task", _wedge_or_run)
    specs = [TaskSpec(tool="wedge", workload="fib"),
             TaskSpec(tool="prof", workload="fib"),
             TaskSpec(tool="dyninst", workload="fib"),
             TaskSpec(tool="gprof", workload="fib")]
    records = run_matrix(specs, jobs=2, retries=1, wall_timeout=1.0)
    wedged, *rest = records
    assert wedged.status == "timeout" and wedged.quarantined
    assert "wall timeout" in wedged.error
    assert wedged.attempts == 1          # quarantined exactly once
    for rec in rest:
        assert rec.status == "ok" and not rec.quarantined
        assert rec.attempts == 1

    serial = run_matrix(specs[1:], jobs=0)
    for s_rec, p_rec in zip(serial, rest):
        assert s_rec.identity() == p_rec.identity()
