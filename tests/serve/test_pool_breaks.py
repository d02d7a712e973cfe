"""The daemon's pool-break path, checked against ``run_matrix``.

One crashing worker breaks the daemon's whole pool, just as it breaks
``run_matrix``'s, and both drive one
:class:`repro.eval.parallel.PoolBreakPolicy`.  Innocent requests in
flight beside the crasher (batched with it, of another workload, or
other ``run`` requests) must come back as if it were not there; the
crasher alone pays, one attempt per break while alone in flight.

The crash is injected as in ``tests/eval/test_parallel_retry.py``:
module-level functions replace ``parallel.execute_task`` (eval cells)
and ``daemon._execute_run`` (runs) through monkeypatch, and the pool's
workers see the patch because they fork from the patched parent.  The
same file checks that every error frame is counted once, by kind.
"""

import base64
import os
import socket
import threading
import time
from functools import partial

import pytest

from repro.eval import parallel
from repro.eval.parallel import TaskResult, TaskSpec, run_matrix
from repro.obs.metrics import parse_text
from repro.serve import DaemonThread, ServeClient, ServeError
from repro.serve import daemon as daemon_mod
from repro.serve.protocol import decode_frame, encode_frame

#: The cell whose worker dies (a real tool: the daemon validates names).
_CRASH_ID = "branch:fib:O1:linked"
#: Seconds an innocent cell takes: the other workload's cell is still in
#: flight when the crasher's batch breaks the pool.
_SLEEP = {"fib": 0.1, "li": 0.6}
_REAL_RUN = daemon_mod._execute_run


def _fake_result(spec: TaskSpec) -> TaskResult:
    return TaskResult(
        tool=spec.tool, workload=spec.workload, opt=spec.opt,
        heap_mode=spec.heap_mode, base_cycles=100, base_insts=10,
        instr_cycles=200, instr_insts=20, points=1, calls_added=1,
        pristine=True, stdout_sha="s", files_sha="f")


def _crash_or_run(spec, cache_spec=None, trace=False, trace_id=None):
    if spec.task_id == _CRASH_ID:
        time.sleep(0.15)                # let innocent siblings start
        os._exit(1)                     # hard crash: breaks the pool
    time.sleep(_SLEEP[spec.workload])
    return _fake_result(spec)


def _raise(spec, cache_spec=None, trace=False, trace_id=None):
    raise RuntimeError("injected")


def _crash_or_reply(exe, args, stdin, max_insts, trace=False,
                    trace_id=None):
    """A ``run`` whose args pick its fate: ``crash`` kills the worker,
    a number is echoed back as cycles, anything else runs for real."""
    if args == ("crash",):
        time.sleep(0.15)
        os._exit(1)
    if args and args[0].isdigit():
        time.sleep(0.4)                 # stay in flight across the break
        return {"timeout": False, "status": 0, "stdout": "",
                "stderr": "", "files": {}, "cycles": int(args[0]),
                "insts": 1}
    return _REAL_RUN(exe, args, stdin, max_insts, trace, trace_id)


def _fire(jobs) -> dict:
    """Run ``{name: (delay, thunk)}`` concurrently; each thunk's result,
    or the ServeError it raised."""
    out = {}

    def one(name, delay, thunk):
        time.sleep(delay)
        try:
            out[name] = thunk()
        except ServeError as exc:
            out[name] = exc

    threads = [threading.Thread(target=one, args=(name, *job))
               for name, job in jobs.items()]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
        assert not t.is_alive()
    return out


def _leftovers(dt) -> list:
    """What the daemon still holds once every reply is in: nothing."""
    daemon = dt.daemon
    return [*daemon._inflight, *daemon._batch_buf,
            *daemon._breaks.inflight, *daemon._breaks.suspects]


#: The crasher batched with two innocents of its workload, and one
#: innocent of another workload in flight beside that batch.
EVAL_SPECS = [TaskSpec(tool="prof", workload="fib"),
              TaskSpec(tool="branch", workload="fib"),
              TaskSpec(tool="dyninst", workload="fib"),
              TaskSpec(tool="gprof", workload="li")]


@pytest.mark.parametrize("retries", [0, 1])
def test_eval_crasher_pays_alone_as_under_run_matrix(tmp_path,
                                                     monkeypatch, retries):
    monkeypatch.setattr(parallel, "execute_task", _crash_or_run)
    with DaemonThread(socket_path=tmp_path / "s.sock", jobs=2,
                      batch_window=0.3,
                      cache_root=tmp_path / "cache") as dt:
        client = ServeClient(dt.socket_path, timeout=120.0)
        replies = _fire({spec.task_id: (0.0, lambda s=spec: client.eval_task(
            s, retries=retries)) for spec in EVAL_SPECS})
        stats = client.stats()
        leftovers = _leftovers(dt)

    served = {task: TaskResult(**rec) for task, rec in replies.items()}
    local = run_matrix(EVAL_SPECS, jobs=2, retries=retries)
    for want in local:
        got = served[TaskSpec(tool=want.tool,
                              workload=want.workload).task_id]
        assert got.identity() == want.identity()
        assert (got.status, got.error, got.attempts, got.quarantined) \
            == (want.status, want.error, want.attempts, want.quarantined)
        if want.tool == "branch":
            assert (got.status, got.error) == ("error",
                                               "worker process died")
            assert got.quarantined and got.attempts == retries + 1
        else:
            assert got.status == "ok" and got.attempts == 1
    # One break implicates the whole first wave; then retries + 1 solo
    # breaks of the crasher.  One rebuild per break.
    assert stats["pool_rebuilds"] == retries + 2
    assert stats["queue_depth"] == 0 and leftovers == []


@pytest.mark.parametrize("retries", [0, 1])
def test_run_crasher_fails_alone_beside_concurrent_runs(tmp_path,
                                                        monkeypatch,
                                                        retries):
    monkeypatch.setattr(daemon_mod, "_execute_run", _crash_or_reply)
    exe = b"stand-in executable"
    with DaemonThread(socket_path=tmp_path / "s.sock", jobs=2,
                      batch_window=0.3,
                      cache_root=tmp_path / "cache") as dt:
        client = ServeClient(dt.socket_path, timeout=120.0)

        def run(arg):
            # ServeClient.run_exe sends no retries, so raw frames here.
            return client._roundtrip({
                "op": "run", "exe": base64.b64encode(exe).decode(),
                "args": [arg], "max_insts": 1000, "retries": retries})

        # The crasher is admitted first, so it breaks the pool while
        # the innocents are dispatched beside it.
        jobs = {"crash": (0.0, lambda: run("crash"))}
        jobs.update({str(n): (0.05, lambda n=n: run(str(n)))
                     for n in range(1, 6)})
        replies = _fire(jobs)
        stats = client.stats()
        leftovers = _leftovers(dt)

    crashed = replies.pop("crash")
    assert isinstance(crashed, ServeError) and crashed.kind == "worker-died"
    for name, frame in replies.items():
        assert not isinstance(frame, ServeError), (name, frame)
        assert frame["run"]["cycles"] == int(name)
    assert stats["pool_rebuilds"] == retries + 2
    assert stats["errors"] == 1 and stats["executed"] == 5
    assert stats["queue_depth"] == 0 and leftovers == []


def _served(call, *args, **kwargs) -> str:
    """The error kind a client call ends in."""
    try:
        call(*args, **kwargs)
    except ServeError as exc:
        return exc.kind
    return "no error"


def test_every_error_frame_is_counted_once_by_kind(tmp_path, monkeypatch):
    """One request down each error path: the ``stats`` op's ``errors``
    is the total of ``wrl_request_errors_total``, which counts each
    kind once.  The SLO error rate stays over admitted requests."""
    monkeypatch.setattr(parallel, "execute_task", _raise)
    monkeypatch.setattr(daemon_mod, "_execute_run", _crash_or_reply)
    with DaemonThread(socket_path=tmp_path / "s.sock", jobs=1,
                      batch_window=0.01, limit=8192,
                      cache_root=tmp_path / "cache") as dt:
        client = ServeClient(dt.socket_path, timeout=120.0)

        def raw(line: bytes) -> str:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                s.settimeout(60.0)
                s.connect(str(dt.socket_path))
                s.sendall(line)
                frame = decode_frame(s.makefile("rb").readline())
            return frame["error"]["kind"]

        paths = [
            ("oversized", partial(_served, client.run_exe, b"\x00" * 32768)),
            ("bad-request", partial(raw, b"this is not json\n")),
            ("unknown-op", partial(raw, encode_frame({"op": "frob"}))),
            ("machine-error", partial(_served, client.run_exe,
                                      b"not a module")),
            ("worker-died", partial(_served, client.run_exe, b"x",
                                    args=("crash",))),
            ("internal", partial(_served, client.eval_task,
                                 TaskSpec(tool="prof", workload="fib"))),
        ]
        for n, (kind, send) in enumerate(paths, start=1):
            assert send() == kind
            assert client.stats()["errors"] == n, kind
            families = parse_text(client.metrics()["text"])
            counts = {s[1]["kind"]: s[2] for s
                      in families["wrl_request_errors_total"]["samples"]}
            assert counts[kind] == 1, kind
            assert sum(counts.values()) == n
        client.run_exe(b"x", args=("7",))
        stats = client.stats()

    # Three admitted requests failed and one succeeded; the three
    # rejections never reached the pool.
    assert stats["slo"]["current"]["error_rate"] == 0.75
    assert stats["overloaded"] == 0 and stats["executed"] == 1
