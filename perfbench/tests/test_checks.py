"""The benchmark's own checks: percentiles, the oracle, isolation, and
the metric lists BENCHMARK.json declares."""

import base64
import hashlib
import time
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import gen, isolate, measure, menus, oracle, phase, report
from perfbench.isolate import IsolationError, Sandbox
from perfbench.serve_mix import Reply, ServeMix

ROOT = Path(__file__).resolve().parents[2]


def test_percentile_refuses_p90_under_100_samples():
    with pytest.raises(measure.TooFewSamples):
        measure.percentile(range(99), 0.90)
    assert 89 < measure.percentile(range(100), 0.90) < 90
    with pytest.raises(measure.TooFewSamples):
        measure.percentile(range(19), 0.50)
    assert measure.percentile(range(1, 22), 0.50) == pytest.approx(11)
    # One outlying op moves it a little, not to the outlier.
    ops = [100.0] * 60 + [200.0] * 60
    bumped = sorted(ops)
    bumped[59] = 199.0
    assert abs(measure.percentile(bumped, 0.5)
               - measure.percentile(ops, 0.5)) < 10


def test_in_process_ops_are_timed_on_the_cpu_clock():
    # Time the op did not run (here: asleep; on a busy host: another
    # process or guest on its vCPU) shows on the wall clock only.
    timer = phase.OpTimer()
    time.sleep(0.2)
    out = timer.stop()
    assert out.wall_ms >= 200 and out.ms < 50
    ledger = phase.Ledger(outcomes=[phase.Outcome(10.0, wall_ms=20.0)] * 100,
                          phase_s=1.0, wall_s=2.0)
    assert ledger.end_to_end() == pytest.approx(
        {"ops_per_s": 100, "op_ms.p50": 10, "op_ms.p90": 10})
    assert ledger.wall_clock() == pytest.approx(
        {"ops_per_s": 50, "op_ms.p50": 20, "op_ms.p90": 20})


def test_oracle_covers_every_menu_pair():
    expected = oracle.Oracle().expected
    assert set(expected) == {oracle.key(w, a) for w in menus.WORKLOADS
                             for a in menus.SCALE_ARGS[w]}


@pytest.fixture(scope="module")
def fib_run():
    """A real stdout: fib at its short argument, uninstrumented."""
    from repro.eval import run_uninstrumented
    from repro.mlc import build_executable
    from repro.workloads import load_source
    app = build_executable([load_source("fib")], name="fib")
    return run_uninstrumented(app, args=(menus.SCALE_ARGS["fib"][0],))


def test_oracle_flags_one_flipped_stdout_byte(fib_run):
    arg = menus.SCALE_ARGS["fib"][0]
    good = fib_run.stdout
    bad = bytes([good[0] ^ 1]) + good[1:]
    ora = oracle.Oracle()
    assert ora.check_run("fib", arg, fib_run.status, good) is None
    assert ora.check_run("fib", arg, fib_run.status, bad) is not None
    assert ora.check_run("fib", arg, fib_run.status + 1, good) is not None


def test_flipped_byte_in_a_serve_reply_is_a_failed_op(fib_run):
    arg = menus.SCALE_ARGS["fib"][0]
    mix = ServeMix(seed=0, oracle=oracle.Oracle())
    req = gen.Request("run", "alpha", "fib", arg)

    def reply_with(stdout: bytes) -> Reply:
        reply = Reply(req, step=0)
        reply.frame = {"type": "result", "run": {
            "timeout": False, "status": fib_run.status,
            "stdout": base64.b64encode(stdout).decode()}}
        return reply

    good = fib_run.stdout
    assert mix.check(reply_with(good)) is None
    assert mix.check(reply_with(bytes([good[0] ^ 1]) + good[1:]))
    # An eval record is judged by its stdout digest the same way.
    ereq = gen.Request("eval", "alpha", "fib", arg, "io", "O1")
    erep = Reply(ereq, step=0)
    erep.frame = {"type": "result", "record": {
        "status": "ok", "pristine": True, "instr_status": fib_run.status,
        "stdout_sha": hashlib.sha256(good).hexdigest()}}
    assert mix.check(erep) is None
    erep.frame["record"]["stdout_sha"] = hashlib.sha256(
        bytes([good[0] ^ 1]) + good[1:]).hexdigest()
    assert mix.check(erep)


def test_isolation_flags_a_file_left_in_the_run_root(tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "src").mkdir(parents=True)
    with pytest.raises(IsolationError, match="stray.tmp"):
        with Sandbox(checkout) as box:
            blob = box.cache_dir / "objects" / "ab" / ("ab" + "0" * 62)
            blob.parent.mkdir(parents=True)
            blob.write_bytes(b"blob")              # allowed: a cache blob
            (box.cache_dir / "objects" / "ab" / "stray.tmp").write_bytes(
                b"half-written")
    assert not (checkout / "perfbench" / ".work").exists()


def test_isolation_reads_no_bytecode_from_the_checkout(tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    source = checkout / "src" / "pkg" / "mod.py"
    before = sys.pycache_prefix
    with Sandbox(checkout) as box:
        cached = Path(importlib.util.cache_from_source(str(source)))
        assert box.root in cached.parents
        assert os.environ["PYTHONPYCACHEPREFIX"] == str(box.pycache_dir)
        assert os.environ["PYTHONDONTWRITEBYTECODE"] == "1"
    assert sys.pycache_prefix == before


def test_isolation_stops_an_orphaned_grandchild(tmp_path, monkeypatch):
    """A child killed by the sandbox leaves its own child orphaned (as a
    set-up probe would leave its daemon); the sandbox still stops it and
    fails the run."""
    monkeypatch.setattr(isolate, "STOP_WAIT_S", 1.0)
    checkout = tmp_path / "checkout"
    (checkout / "src").mkdir(parents=True)
    sleeper = "import time; time.sleep(60)"
    parent = ("import subprocess, sys, time; "
              f"p = subprocess.Popen([sys.executable, '-c', {sleeper!r}]); "
              "print(p.pid, flush=True); time.sleep(60)")
    with pytest.raises(IsolationError, match="still running"):
        with Sandbox(checkout) as box:
            proc = box.spawn([sys.executable, "-c", parent],
                             stdout=subprocess.PIPE, text=True)
            grandchild = int(proc.stdout.readline())
            proc.stdout.close()
    assert not measure.alive(grandchild)


def test_isolation_flags_a_run_root_left_behind(tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "src").mkdir(parents=True)
    with pytest.raises(IsolationError, match="run-probe"):
        with Sandbox(checkout) as box:
            (box.base / "run-probe").mkdir()
    assert not (checkout / "perfbench" / ".work").exists()


def test_isolation_scrubs_wrl_environment(tmp_path, monkeypatch):
    checkout = tmp_path / "checkout"
    (checkout / "src").mkdir(parents=True)
    monkeypatch.setenv("WRL_TRACE", "/somewhere/trace.json")
    monkeypatch.setenv("WRL_CACHE_DIR", "/somewhere/else")
    with Sandbox(checkout) as box:
        assert "WRL_TRACE" not in os.environ
        assert os.environ["WRL_CACHE_DIR"] == str(box.cache_dir)
    assert os.environ["WRL_TRACE"] == "/somewhere/trace.json"


def test_benchmark_json_declares_what_the_runs_print():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(report.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        list(report.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == \
        ["fig5-instrument", "fig6-run", "serve-mix"]
