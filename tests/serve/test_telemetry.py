"""End-to-end telemetry tests for the serving stack: one merged trace
per request across client, daemon, and worker processes; dedup
follower linkage; the ``metrics`` op's Prometheus exposition; the SLO
watchdog; idle-daemon stats; and v1/v2 terminal-frame byte identity."""

import io
import os
import socket as socketlib
import threading

import pytest

from repro.eval.parallel import TaskSpec
from repro.obs import TRACE, mint_trace_id
from repro.obs.metrics import parse_text
from repro.serve import DaemonThread, ServeClient
from repro.serve.protocol import (TERMINAL_TYPES, decode_frame,
                                  encode_frame)
from repro.workloads import build_workload


@pytest.fixture(scope="module")
def exe() -> bytes:
    return build_workload("fib").to_bytes()


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("telemetry")
    with DaemonThread(socket_path=tmp / "serve.sock", jobs=2,
                      batch_window=0.05,
                      cache_root=tmp / "cache") as dt:
        yield dt


@pytest.fixture(scope="module")
def client(daemon) -> ServeClient:
    return ServeClient(daemon.socket_path, timeout=300.0)


# ---- the acceptance criterion: one merged trace per request ----------------


def test_one_request_produces_one_merged_trace(tmp_path):
    """A single served eval produces client, daemon, and worker spans
    sharing one trace id, merged into one trace, and renderable as one
    timeline by ``wrl-trace summary --trace-id``."""
    trace_id = mint_trace_id()
    TRACE.reset()
    TRACE.enable()
    try:
        with DaemonThread(socket_path=tmp_path / "serve.sock", jobs=1,
                          batch_window=0.02,
                          cache_root=tmp_path / "cache") as dt:
            client = ServeClient(dt.socket_path, timeout=300.0)
            spec = TaskSpec(tool="prof", workload="fib",
                            wl_args=("10",))
            record = client.eval_task(spec, tenant="traced",
                                      trace_id=trace_id)
            assert record["status"] == "ok"
            # The wire record never carries the worker snapshot — it is
            # merged daemon-side, keeping terminal frames v1-identical.
            assert record["trace"] is None
        snap = TRACE.snapshot()
    finally:
        TRACE.disable()
        TRACE.reset()

    tagged = [ev for ev in snap["events"]
              if ev.get("args", {}).get("trace_id") == trace_id]
    names = {ev["name"] for ev in tagged}
    # Client-side span, daemon queue/execute/request spans, and the
    # worker's compile/instrument spans all share the one id.
    assert "serve.client" in names
    assert {"serve.queue", "serve.execute",
            "serve.request"} <= names
    # Worker-side instrument + interpret spans carry the id too.
    # (compile.analysis is absent when the fork inherited a memoized
    # analysis object, so assert on the phases that always run.)
    assert "apply_tool" in names
    assert any(name.startswith("interpret.") for name in names)
    # ... and they genuinely span processes: the worker pid differs.
    pids = {ev["pid"] for ev in tagged}
    assert os.getpid() in pids and len(pids) >= 2

    # wrl-trace summary --trace-id renders the same timeline.
    from repro.obs.cli import timeline
    out = io.StringIO()
    shown = timeline(snap, trace_id, out=out)
    assert shown == len(tagged) >= 5
    text = out.getvalue()
    assert f"trace {trace_id}" in text
    assert "serve/serve.client" in text
    assert "process(es)" in text


def test_traced_run_merges_worker_span_under_request_id(tmp_path, exe):
    """A traced daemon's ``run`` request: the worker's ``interpret.base``
    span is merged into the daemon's trace under the request's trace
    id, and the terminal frame carries no ``trace`` key."""
    import base64
    trace_id = mint_trace_id()
    TRACE.reset()
    TRACE.enable()
    try:
        with DaemonThread(socket_path=tmp_path / "serve.sock", jobs=1,
                          batch_window=0.02,
                          cache_root=tmp_path / "cache") as dt:
            line = _raw_terminal(dt.socket_path, {
                "op": "run", "exe": base64.b64encode(exe).decode(),
                "args": ["10"], "trace_id": trace_id})
        snap = TRACE.snapshot()
    finally:
        TRACE.disable()
        TRACE.reset()

    frame = decode_frame(line)
    assert frame["type"] == "result"
    assert "trace" not in frame and "trace" not in frame["run"]
    worker = [ev for ev in snap["events"]
              if ev["name"] == "interpret.base"
              and ev["args"].get("trace_id") == trace_id]
    assert worker
    assert all(ev["pid"] != os.getpid() for ev in worker)


def test_deduped_follower_is_linked_to_executing_request(client, exe):
    """Concurrent identical requests coalesce; each follower's
    heartbeat stream carries its own trace id plus ``linked_to`` naming
    the executing entry's id."""
    n = 5
    ids = [f"dedup-trace-{i}" for i in range(n)]
    beats: dict[str, list] = {tid: [] for tid in ids}
    errors: list = []
    barrier = threading.Barrier(n)

    def worker(tid: str) -> None:
        try:
            barrier.wait()
            client.run_exe(exe, args=("14",), trace_id=tid,
                           on_heartbeat=beats[tid].append)
        except Exception as exc:              # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(tid,))
               for tid in ids]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors

    dedup_beats = [hb for hbs in beats.values() for hb in hbs
                   if hb["args"].get("phase") == "deduped"]
    assert dedup_beats, "no request was coalesced"
    for hb in dedup_beats:
        args = hb["args"]
        # Follower keeps its id; linked_to names a *different* minted
        # id — the executing entry's.
        assert args["trace_id"] in ids
        assert args["linked_to"] in ids
        assert args["linked_to"] != args["trace_id"]


# ---- metrics op ------------------------------------------------------------


def test_metrics_op_emits_parseable_prometheus_text(client, exe):
    spec = TaskSpec(tool="branch", workload="fib", wl_args=("10",))
    client.eval_task(spec, tenant="team-a")
    client.run_exe(exe, args=("12",), tenant="team-a")
    reply = client.metrics()
    assert reply["enabled"] is True

    families = parse_text(reply["text"])
    for required in ("wrl_requests_total", "wrl_request_latency_ms",
                     "wrl_queue_depth", "wrl_dedup_hits_total",
                     "wrl_executed_total", "wrl_batches_total",
                     "wrl_tenant_cache_blobs", "wrl_tenant_cache_bytes"):
        assert required in families, f"missing {required}"
    assert families["wrl_request_latency_ms"]["type"] == "histogram"

    # Per-op request counts appear as labeled samples.
    ops = {s[1].get("op") for s
           in families["wrl_requests_total"]["samples"]}
    assert {"eval", "run", "metrics"} <= ops
    # Tenant cache gauges are refreshed at exposition time.
    tenants = {s[1].get("tenant") for s
               in families["wrl_tenant_cache_bytes"]["samples"]}
    assert "team-a" in tenants

    # The JSON half carries the same families plus rolling rates.
    doc = reply["metrics"]
    entry = doc["metrics"]["wrl_requests_total"]
    assert set(entry["rates"]) == {"1s", "10s", "60s"}
    assert entry["rates"]["60s"] > 0


# ---- SLO watchdog ----------------------------------------------------------


def test_slo_watchdog_flags_p99_breach(tmp_path, exe):
    # A sub-microsecond p99 target: every completed request breaches.
    with DaemonThread(socket_path=tmp_path / "serve.sock", jobs=1,
                      cache_root=tmp_path / "cache",
                      slo_p99_ms=0.0001) as dt:
        client = ServeClient(dt.socket_path, timeout=300.0)
        client.run_exe(exe, args=("10",))
        stats = client.stats()
        reply = client.metrics()

    slo = stats["slo"]
    assert slo["configured"] is True
    assert slo["p99_ms"] == 0.0001 and slo["window_s"] == 60
    assert slo["breaches"].get("p99_ms", 0) >= 1
    last = slo["last_breach"]
    assert last["metric"] == "p99_ms"
    assert last["value"] > last["threshold"]
    assert slo["current"]["samples"] >= 1
    # Breaches are counted in the registry, which the stats op projects.
    families = parse_text(reply["text"])
    breach_samples = families["wrl_slo_breaches_total"]["samples"]
    assert any(s[1].get("metric") == "p99_ms" and s[2] >= 1
               for s in breach_samples)


def test_unconfigured_slo_reports_inactive(client):
    slo = client.stats()["slo"]
    assert slo["configured"] is False
    assert slo["breaches"] == {} and slo["last_breach"] is None


# ---- satellite: idle stats + per-op latency breakdown ----------------------


def test_idle_daemon_stats_are_all_zero(tmp_path):
    with DaemonThread(socket_path=tmp_path / "serve.sock", jobs=1,
                      cache_root=tmp_path / "cache") as dt:
        client = ServeClient(dt.socket_path, timeout=60.0)
        stats = client.stats()
        reply = client.metrics()

    assert stats["executed"] == stats["errors"] == 0
    assert stats["dedup_hits"] == 0 and stats["dedup_rate"] == 0.0
    zero = {"count": 0, "mean": 0.0, "max": 0, "p50": 0, "p90": 0,
            "p99": 0}
    assert stats["latency_ms"] == zero
    assert stats["latency_ms_by_op"] == {"eval": zero, "run": zero}
    assert stats["batch_size"]["count"] == 0
    assert stats["slo"]["current"] == {"p99_ms": 0.0,
                                       "error_rate": 0.0, "samples": 0}
    # The exposition is parseable even before any traffic.
    parse_text(reply["text"])


def test_stats_latency_has_mean_max_and_per_op_split(client, exe):
    spec = TaskSpec(tool="prof", workload="fib", wl_args=("11",))
    client.eval_task(spec, tenant="split")
    client.run_exe(exe, args=("11",), tenant="split")
    stats = client.stats()

    lat = stats["latency_ms"]
    for key in ("count", "mean", "max", "p50", "p90", "p99"):
        assert key in lat
    assert lat["count"] >= 2
    assert 0 < lat["mean"] <= lat["max"]
    assert lat["p50"] <= lat["p99"] <= lat["max"]

    by_op = stats["latency_ms_by_op"]
    assert set(by_op) == {"eval", "run"}
    assert by_op["eval"]["count"] >= 1 and by_op["run"]["count"] >= 1
    assert lat["count"] >= by_op["eval"]["count"] + by_op["run"]["count"]


# ---- satellite: v1 clients round-trip byte-identically ---------------------


def _raw_terminal(sock_path, request: dict) -> bytes:
    sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    sock.settimeout(300.0)
    try:
        sock.connect(str(sock_path))
        sock.sendall(encode_frame(request))
        with sock.makefile("rb") as stream:
            for line in stream:
                if decode_frame(line).get("type") in TERMINAL_TYPES:
                    return line
    finally:
        sock.close()
    raise AssertionError("no terminal frame")


def test_v1_client_gets_byte_identical_terminal_frame(daemon, exe):
    """A v1 request (no ``trace_id``) and a v2 request for the same
    work receive byte-identical terminal frames: trace context may ride
    on heartbeats and in the trace, never in results."""
    import base64
    base = {"op": "run", "id": "v1-compat",
            "exe": base64.b64encode(exe).decode(),
            "args": ["13"], "max_insts": 500_000_000, "fuse": True}
    v1 = _raw_terminal(daemon.socket_path, dict(base))
    v2 = _raw_terminal(daemon.socket_path,
                       dict(base, trace_id="v2-trace-id"))
    assert v1 == v2
    frame = decode_frame(v1)
    assert frame["type"] == "result"
    assert "trace_id" not in frame and "trace" not in frame["run"]
