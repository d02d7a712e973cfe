"""End-to-end daemon tests over a live in-process ``DaemonThread``:
byte-identity with the cold path, dedup coalescing (N identical
requests, one execution), one pool task per request, protocol edge
cases (oversized requests, overload shedding, client disconnect
mid-stream), stale-socket recovery, and timeout/quarantine parity with
the serial runner.

Tests that need a request held in flight replace ``parallel.execute_task``
or ``daemon._execute_run`` with a slow module-level stand-in through
monkeypatch, as ``test_pool_breaks.py`` does: the pool's workers fork
from the patched parent, so they run the stand-in."""

import base64
import json
import os
import socket
import threading
import time

import pytest

from repro.eval import parallel
from repro.eval.parallel import TaskResult, TaskSpec, run_with_retries
from repro.eval.runner import run_uninstrumented
from repro.serve import DaemonThread, ServeClient, ServeError
from repro.serve import daemon as daemon_mod
from repro.serve.protocol import encode_frame, spec_to_wire
from repro.workloads import build_workload

_REAL_RUN = daemon_mod._execute_run
#: Seconds a stand-in holds its worker.
_HOLD = 1.0


def _slow_run(exe, args, stdin, max_insts, trace=False, trace_id=None):
    """``_execute_run`` held in flight for ``_HOLD`` seconds first."""
    time.sleep(_HOLD)
    return _REAL_RUN(exe, args, stdin, max_insts, trace, trace_id)


def _slow_cell(spec, cache=None, trace=False, trace_id=None):
    """A stand-in eval cell that holds its worker for ``_HOLD`` seconds
    and reports the worker's pid as its ``stdout_sha``."""
    time.sleep(_HOLD)
    return TaskResult.of(spec, stdout_sha=str(os.getpid()))


@pytest.fixture(scope="module")
def exe() -> bytes:
    return build_workload("fib").to_bytes()


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve")
    with DaemonThread(socket_path=tmp / "serve.sock", jobs=2,
                      cache_root=tmp / "cache") as dt:
        yield dt


@pytest.fixture(scope="module")
def client(daemon) -> ServeClient:
    return ServeClient(daemon.socket_path, timeout=300.0)


def test_ping_and_stats_ops(client):
    assert client.ping()["type"] == "pong"
    stats = client.stats()
    for key in ("uptime_s", "jobs", "queue_depth", "dedup_hits",
                "overloaded", "executed", "pool_rebuilds", "latency_ms",
                "tenants"):
        assert key in stats


def test_run_byte_identity_with_cold_path(client, exe):
    from repro.objfile.module import Module
    ref = run_uninstrumented(Module.from_bytes(exe), args=("12",),
                             max_insts=500_000_000)
    heartbeats = []
    reply = client.run_exe(exe, args=("12",),
                           on_heartbeat=heartbeats.append)
    assert not reply.timeout
    assert reply.status == ref.status
    assert reply.stdout == ref.stdout
    assert reply.stderr == ref.stderr
    assert reply.files == ref.files
    assert reply.cycles == ref.cycles
    assert reply.insts == ref.inst_count
    phases = [h["args"]["phase"] for h in heartbeats]
    assert "queued" in phases and "dispatch" in phases


def _terminal(sock_path, request: dict) -> dict:
    """Send one raw request line; the terminal frame it ends in."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
        raw.settimeout(300.0)
        raw.connect(str(sock_path))
        raw.sendall(encode_frame(request))
        with raw.makefile("rb") as stream:
            frame = json.loads(stream.readline())
            while frame["type"] not in ("result", "error"):
                frame = json.loads(stream.readline())
    return frame


def test_run_request_with_jit_key_succeeds(daemon, exe):
    """perfbench/serve_mix.py still sends ``"jit": true`` on run
    requests: the daemon ignores unknown top-level request keys, so the
    request runs like one without it."""
    frame = _terminal(daemon.socket_path, {
        "op": "run", "id": "with-jit",
        "exe": base64.b64encode(exe).decode(), "args": ["12"],
        "max_insts": 500_000_000, "fuse": True, "jit": True})
    assert frame["type"] == "result", frame
    ref = ServeClient(daemon.socket_path, timeout=300.0).run_exe(
        exe, args=("12",))
    assert frame["run"]["status"] == ref.status
    assert frame["run"]["insts"] == ref.insts
    assert "jit_stats" not in frame["run"]


@pytest.mark.parametrize("fuse", [False, True])
def test_requests_with_fuse_key_are_served(daemon, exe, fuse):
    """perfbench/serve_mix.py sends ``"fuse": true`` on eval and run
    requests.  Dispatch is the machine's choice, not the client's: the
    key is ignored like any unknown top-level key, and either value
    gets the reply a request without it gets."""
    client = ServeClient(daemon.socket_path, timeout=300.0)
    run = _terminal(daemon.socket_path, {
        "op": "run", "exe": base64.b64encode(exe).decode(),
        "args": ["12"], "max_insts": 500_000_000, "fuse": fuse})
    assert run["type"] == "result", run
    ref = client.run_exe(exe, args=("12",))
    assert (run["run"]["status"], run["run"]["cycles"]) \
        == (ref.status, ref.cycles)

    spec = TaskSpec(tool="prof", workload="fib", wl_args=("10",))
    served = _terminal(daemon.socket_path, {
        "op": "eval", "tenant": "fuse-key", "spec": spec_to_wire(spec),
        "fuse": fuse})
    assert served["type"] == "result", served
    record = served["record"]
    assert record["status"] == "ok"
    assert TaskResult(**record).identity() == TaskResult(
        **client.eval_task(spec, tenant="fuse-key")).identity()


def test_evals_differing_only_in_fuse_coalesce(tmp_path):
    """Two concurrent evals of one spec, one sending ``"fuse": true``
    and one ``"fuse": false``, are the same request: one execution, one
    dedup hit, one record."""
    spec = spec_to_wire(TaskSpec(tool="prof", workload="fib",
                                 wl_args=("10",)))
    frames = {}
    with DaemonThread(socket_path=tmp_path / "s.sock", jobs=1,
                      cache_root=tmp_path / "cache") as dt:
        def fire(fuse):
            frames[fuse] = _terminal(dt.socket_path, {
                "op": "eval", "spec": spec, "fuse": fuse})

        threads = [threading.Thread(target=fire, args=(fuse,))
                   for fuse in (True, False)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = ServeClient(dt.socket_path).stats()
    assert (stats["dedup_hits"], stats["executed"]) == (1, 1)
    assert frames[True]["type"] == frames[False]["type"] == "result"
    assert frames[True]["record"] == frames[False]["record"]


def test_eval_record_matches_serial_runner(client):
    spec = TaskSpec(tool="prof", workload="fib", wl_args=("10",))
    ref = run_with_retries(spec, None, 1)
    record = client.eval_task(spec, tenant="parity")
    record.pop("trace", None)
    served = TaskResult(**record)
    assert served.identity() == ref.identity()
    assert served.attempts == ref.attempts == 1
    assert served.quarantined == ref.quarantined is False


def test_concurrent_cells_of_one_workload_run_in_two_workers(
        tmp_path, monkeypatch):
    """Each admitted request is its own pool task: two concurrent eval
    cells of one workload at jobs=2 run side by side in two workers,
    not one after the other in one."""
    monkeypatch.setattr(parallel, "execute_task", _slow_cell)
    specs = [TaskSpec(tool="prof", workload="fib"),
             TaskSpec(tool="branch", workload="fib")]
    records = {}
    with DaemonThread(socket_path=tmp_path / "s.sock", jobs=2,
                      cache_root=tmp_path / "cache") as dt:
        client = ServeClient(dt.socket_path, timeout=120.0)
        # Start the pool's workers before the timed pair.
        client.eval_task(TaskSpec(tool="dyninst", workload="fib"))
        barrier = threading.Barrier(len(specs))

        def fire(spec):
            barrier.wait()
            records[spec.tool] = client.eval_task(spec)

        threads = [threading.Thread(target=fire, args=(spec,))
                   for spec in specs]
        t0 = time.monotonic()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        elapsed = time.monotonic() - t0

    assert set(records) == {"prof", "branch"}
    assert all(rec["status"] == "ok" for rec in records.values())
    assert records["prof"]["stdout_sha"] != records["branch"]["stdout_sha"]
    assert elapsed < 1.5 * _HOLD


def test_timeout_parity_with_serial_runner(client):
    """Satellite (f): a task timing out under the daemon produces the
    same record — status, error text, attempts, quarantine — as under
    the serial wrl-eval path (timeouts are deterministic: one attempt,
    quarantined, never retried)."""
    spec = TaskSpec(tool="prof", workload="fib", wl_args=("15",),
                    base_max_insts=1000)
    ref = run_with_retries(spec, None, 1)
    assert ref.status == "timeout"          # the premise of the test
    record = client.eval_task(spec, tenant="parity", retries=1)
    record.pop("trace", None)
    served = TaskResult(**record)
    assert served.identity() == ref.identity()
    assert served.status == "timeout"
    assert served.error == ref.error
    assert served.attempts == ref.attempts == 1
    assert served.quarantined is True


def test_dedup_coalesces_concurrent_identical_requests(client, exe):
    before = client.stats()
    n = 6
    replies, errors = [], []

    def one():
        try:
            replies.append(client.run_exe(exe, args=("20",)))
        except Exception as error:            # noqa: BLE001
            errors.append(error)

    threads = [threading.Thread(target=one) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(replies) == n
    assert all(r.stdout == replies[0].stdout
               and r.cycles == replies[0].cycles for r in replies)
    after = client.stats()
    # Exactly one execution for the burst; the rest were dedup hits.
    assert after["executed"] - before["executed"] == 1
    assert after["dedup_hits"] - before["dedup_hits"] == n - 1


def test_tenant_quota_tracked_per_namespace(client, daemon):
    spec = TaskSpec(tool="branch", workload="fib", wl_args=("10",))
    client.eval_task(spec, tenant="quota-a")
    stats = client.stats()
    assert "quota-a" in stats["tenants"]
    usage = stats["tenants"]["quota-a"]
    assert usage["blobs"] >= 1
    assert usage["bytes"] > 0


def test_oversized_request_gets_structured_error(tmp_path):
    with DaemonThread(socket_path=tmp_path / "s.sock", jobs=1,
                      cache_root=tmp_path / "cache",
                      limit=8192) as dt:
        client = ServeClient(dt.socket_path, timeout=60.0)
        with pytest.raises(ServeError) as exc:
            client.run_exe(b"\x00" * 32768)   # ~44KB line > 8KB limit
        assert exc.value.kind == "oversized"
        # The daemon survives and keeps serving.
        assert client.ping()["type"] == "pong"


def test_overload_sheds_with_structured_response(tmp_path, exe,
                                                 monkeypatch):
    """Admission control: past max_queue the daemon answers
    ``overloaded`` immediately instead of queueing."""
    monkeypatch.setattr(daemon_mod, "_execute_run", _slow_run)
    with DaemonThread(socket_path=tmp_path / "s.sock", jobs=1,
                      max_queue=1, cache_root=tmp_path / "cache") as dt:
        client = ServeClient(dt.socket_path, timeout=60.0)
        results = {}

        def fire(arg):
            try:
                results[arg] = client.run_exe(exe, args=(arg,))
            except ServeError as error:
                results[arg] = error

        # First request occupies the only queue slot while its worker
        # is held; the distinct followers must be shed.
        t1 = threading.Thread(target=fire, args=("18",))
        t1.start()
        time.sleep(0.15)
        fire("19")
        fire("20")
        t1.join()
        kinds = [r.kind for r in results.values()
                 if isinstance(r, ServeError)]
        assert kinds.count("overloaded") == 2
        assert not isinstance(results["18"], ServeError)
        assert client.stats()["overloaded"] == 2


def test_disconnect_cancels_only_own_subscription(tmp_path, exe,
                                                  monkeypatch):
    """A client hanging up mid-stream must not take down deduped
    siblings waiting on the same work."""
    monkeypatch.setattr(daemon_mod, "_execute_run", _slow_run)
    with DaemonThread(socket_path=tmp_path / "s.sock", jobs=1,
                      cache_root=tmp_path / "cache") as dt:
        # The pool forks its worker on first use, from this process: a
        # worker forked while the raw socket below is open would keep
        # it open after close(), and the daemon would never see the
        # hang-up.  So fork it first.
        dt.daemon.pool.submit(int).result()
        client = ServeClient(dt.socket_path, timeout=60.0)
        sibling = {}

        def wait_for_result():
            sibling["reply"] = client.run_exe(exe, args=("21",))

        # First subscriber: a raw socket we will slam shut mid-queue.
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(str(dt.socket_path))
        # Same parameters as ServeClient.run_exe's defaults, so both
        # subscribers land on the same dedup key.
        raw.sendall(encode_frame({"op": "run",
                                  "exe": base64.b64encode(exe).decode(),
                                  "args": ["21"],
                                  "max_insts": 500_000_000}))
        time.sleep(0.1)            # its worker is held for _HOLD
        t = threading.Thread(target=wait_for_result)
        t.start()
        time.sleep(0.1)            # sibling subscribed to same entry
        raw.close()                # first client gone
        t.join(timeout=60.0)
        assert not t.is_alive()
        assert sibling["reply"].stdout   # sibling still got the result
        # Exactly one subscription was cancelled, one executed.
        stats = ServeClient(dt.socket_path).stats()
        assert stats["cancelled"] == 1
        assert stats["executed"] == 1
        assert stats["dedup_hits"] == 1


def test_stale_socket_is_reclaimed_and_no_socket_left(tmp_path):
    sock = tmp_path / "s.sock"
    sock.write_bytes(b"")          # stale leftover, nobody listening
    with DaemonThread(socket_path=sock, jobs=1,
                      cache_root=tmp_path / "cache") as dt:
        assert ServeClient(sock, timeout=30.0).ping()["type"] == "pong"
    deadline = time.monotonic() + 10.0
    while sock.exists() and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not sock.exists()       # restart leaves no stale socket
    # ... so a fresh daemon can bind the same path immediately.
    with DaemonThread(socket_path=sock, jobs=1,
                      cache_root=tmp_path / "cache"):
        assert ServeClient(sock, timeout=30.0).ping()["type"] == "pong"


def test_second_daemon_refuses_live_socket(tmp_path):
    sock = tmp_path / "s.sock"
    with DaemonThread(socket_path=sock, jobs=1,
                      cache_root=tmp_path / "cache"):
        with pytest.raises(RuntimeError):
            DaemonThread(socket_path=sock, jobs=1,
                         cache_root=tmp_path / "cache").start()


def test_unknown_op_and_bad_requests(daemon):
    def ask(request):
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(30.0)
        raw.connect(str(daemon.socket_path))
        raw.sendall(request)
        with raw.makefile("rb") as stream:
            return json.loads(stream.readline())

    frame = ask(encode_frame({"op": "frobnicate"}))
    assert frame["error"]["kind"] == "unknown-op"
    frame = ask(b"this is not json\n")
    assert frame["error"]["kind"] == "bad-request"
    frame = ask(encode_frame({"op": "eval", "spec": {"tool": "nope",
                                                     "workload": "fib"}}))
    assert frame["error"]["kind"] == "bad-request"
    frame = ask(encode_frame({"op": "run", "exe": "AAAA",
                              "tenant": "bad/tenant"}))
    assert frame["error"]["kind"] == "bad-request"


def test_shutdown_op_stops_daemon(tmp_path):
    dt = DaemonThread(socket_path=tmp_path / "s.sock", jobs=1,
                      cache_root=tmp_path / "cache").start()
    client = ServeClient(dt.socket_path, timeout=30.0)
    assert client.shutdown()["type"] == "ok"
    dt._thread.join(timeout=30.0)
    assert not dt._thread.is_alive()
    assert not dt.socket_path.exists()
