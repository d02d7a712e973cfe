"""The overhead benchmark's report shape and guard rails.

The actual <2% budget assertion is the ``make check-obs`` lane
(``python -m repro.obs.overhead``); here we keep the harness itself
honest on a tiny workload without asserting wall-clock numbers, which
do not belong in a unit test.
"""

import pytest

from repro.obs import TRACE
from repro.obs.overhead import (OVERHEAD_SCHEMA, main, measure_workload,
                                run_overhead)


def test_measure_workload_row_shape():
    row = measure_workload("fib", reps=1)
    assert row["workload"] == "fib"
    assert row["insts"] > 0
    assert row["hooked_ips"] > 0 and row["detached_ips"] > 0
    assert isinstance(row["overhead"], float)


def test_hooked_and_detached_execute_identically():
    """The detached side (``Cpu.run`` without the observability layer
    around it) must be the same computation — identical retired-
    instruction count — or the A/B is meaningless."""
    from repro.machine import run_module
    from repro.obs.overhead import _run_detached
    from repro.workloads import build_workload
    module = build_workload("fib")
    assert _run_detached(module) == run_module(module).inst_count


def test_run_overhead_report(tmp_path):
    report = run_overhead(workloads=("fib",), reps=1, budget=0.99)
    assert report["schema"] == OVERHEAD_SCHEMA
    assert report["ok"] is True          # nothing is 99% slower
    (row,) = report["rows"]
    assert row["workload"] == "fib"


def test_run_overhead_refuses_enabled_tracer():
    TRACE.enable()
    try:
        with pytest.raises(RuntimeError):
            run_overhead(workloads=("fib",), reps=1)
    finally:
        TRACE.disable()
        TRACE.reset()


def test_main_quick_writes_report(tmp_path, capsys):
    out = tmp_path / "overhead.json"
    # A wide budget: this asserts plumbing, not machine speed.
    code = main(["--quick", "--workloads", "fib", "--budget", "0.99",
                 "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert "budget" in capsys.readouterr().out


def test_main_rejects_bad_flags():
    with pytest.raises(SystemExit):
        main(["--workloads", "no-such-workload"])
    with pytest.raises(SystemExit):
        main(["--budget", "2.0"])
    with pytest.raises(SystemExit):
        main(["--reps", "0"])
