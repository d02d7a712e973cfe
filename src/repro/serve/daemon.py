"""``wrl-serve``: the persistent instrumentation-as-a-service daemon.

One asyncio event loop fronts a *warm* ``ProcessPoolExecutor`` (workers
pre-import the whole compile/run stack, so per-task cost is pure work)
behind a unix-domain socket speaking the newline-JSON protocol of
:mod:`repro.serve.protocol`.  The hot path is the point:

* **Dedup** — concurrent identical requests (same spec/exe-hash, args,
  budgets, tenant) coalesce onto one in-flight entry: N clients, one
  compile+run, N streamed results.  A client disconnecting mid-stream
  cancels only its own subscription; deduped siblings are untouched.
* **Dispatch on admission** — every admitted request goes to the warm
  pool as its own task, as ``run_matrix`` submits one spec per task, so
  concurrent requests run in parallel on as many workers as there are.
* **Admission control** — at most ``max_queue`` requests are queued or
  executing; past that the daemon *sheds* with a structured
  ``overloaded`` error immediately instead of stacking latency.
* **Per-tenant quotas** — every tenant's tool artifacts live in their
  own cache namespace (:mod:`repro.serve.quota`); a tenant over its
  entry or byte quota evicts only its own blobs.
* **Pool breaks** — a crashed worker breaks the whole pool; the
  daemon drives the same :class:`repro.eval.parallel.PoolBreakPolicy`
  as ``run_matrix``, so an innocent request beside a crasher ends
  exactly as it would without one.
* **Observability** — one :class:`repro.obs.metrics.MetricsRegistry`
  records every event as a labeled counter, gauge or rolling-window
  histogram (mirrored into :data:`repro.obs.TRACE` when tracing).  The
  ``metrics`` op exposes it (Prometheus text + JSON) and the ``stats``
  op is a projection of it; progress streams as heartbeat frames in the
  ``WRL_HEARTBEAT`` JSONL row format.  Every request carries a
  ``trace_id`` (client-minted or server-assigned) stamped on its daemon
  spans, heartbeats, and worker trace snapshot, and an optional SLO
  watchdog (``--slo-p99-ms``/``--slo-error-rate``) emits structured
  breach events.

Execution inside a worker goes through the very same
:func:`repro.eval.parallel.run_with_retries` /
:func:`repro.eval.runner.run_uninstrumented` paths the cold-process CLIs
use, so artifacts fetched through the daemon are byte-identical to
``wrl-run``/``wrl-eval`` output — the contract ``make check-serve``
enforces differentially.
"""

from __future__ import annotations

import argparse
import asyncio
import base64
import contextlib
import hashlib
import signal
import sys
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict
from pathlib import Path

from ..eval import runner
from ..eval.parallel import (PoolBreakPolicy, TaskResult, _kill_pool,
                             default_jobs, run_with_retries, traced_call,
                             worker_died)
from ..obs import TRACE, mint_trace_id, percentile, trace_path_from_env
from ..obs.metrics import MetricsRegistry
from .protocol import (DEFAULT_SOCKET_NAME, ERROR_KINDS,
                       MAX_REQUEST_BYTES, OPS, SERVE_SCHEMA,
                       ProtocolError, decode_frame, encode_frame,
                       error_frame, eval_dedup_key, heartbeat_frame,
                       options_from_wire, run_dedup_key, run_from_wire,
                       spec_from_wire, validate_tenant,
                       validate_trace_id)
from .quota import DEFAULT_TENANT_CAP, TenantCaches

DEFAULT_MAX_QUEUE = 64                # queued + executing requests


# ---- worker side (picklable top-level functions) ---------------------------
#
# An eval cell is submitted as :func:`run_with_retries` itself, with the
# tenant's ``ArtifactCache`` as its store.

def _warm_worker() -> None:
    """Pool initializer: pre-import so first tasks pay pure work."""
    runner.preload_process()


def _execute_run(exe: bytes, args: tuple[str, ...], stdin: bytes,
                 max_insts: int, trace: bool = False,
                 trace_id: str | None = None) -> dict:
    """One uninstrumented execution — the daemon half of ``wrl-run``.

    With ``trace``, the worker captures its interpret spans under
    ``trace_id`` (:func:`repro.eval.parallel.traced_call`) and ships
    them back in the reply's ``trace`` key; the daemon merges and
    strips it before the result frame hits the wire.
    """
    from ..eval.errors import EvalTimeout
    from ..machine.cpu import MachineError
    from ..objfile.module import Module, ObjError

    def run() -> dict:
        try:
            result = runner.run_uninstrumented(
                Module.from_bytes(exe), args=args, stdin=stdin,
                max_insts=max_insts)
        except EvalTimeout as exc:
            return {"timeout": True, "message": str(exc)}
        except (MachineError, ObjError) as exc:
            return {"fault": str(exc)}
        return {
            "timeout": False,
            "status": result.status,
            "stdout": base64.b64encode(result.stdout).decode(),
            "stderr": base64.b64encode(result.stderr).decode(),
            "files": {name: base64.b64encode(data).decode()
                      for name, data in sorted(result.files.items())},
            "cycles": result.cycles,
            "insts": result.inst_count,
        }

    reply, snap = traced_call(run, trace, trace_id)
    if snap is not None:
        reply["trace"] = snap
    return reply


# ---- daemon-side request bookkeeping ---------------------------------------

class _Entry:
    """One unit of in-flight work; N deduped subscribers share it, each
    through its own frame queue."""

    __slots__ = ("key", "op", "label", "payload", "tenant", "retries",
                 "subs", "t0", "trace_id", "t0_ns", "t_dispatch_ns")

    def __init__(self, key: str, op: str, label: str, payload,
                 tenant: str, retries: int, trace_id: str):
        self.key = key
        self.op = op                  # "eval" | "run"
        self.label = label
        self.payload = payload
        self.tenant = tenant
        self.retries = retries
        self.subs: list[asyncio.Queue] = []
        self.t0 = time.monotonic()
        #: Request trace context: the executing client's id (or a
        #: server-minted one); every span/heartbeat of this entry and
        #: its worker execution is stamped with it.
        self.trace_id = trace_id
        self.t0_ns = time.monotonic_ns()
        self.t_dispatch_ns: int | None = None

    def publish(self, frame: dict) -> None:
        for sub in list(self.subs):
            sub.put_nowait(frame)


#: Error kinds an admitted request can end in.  The SLO error rate is
#: over these alone: a rejected request never reached the pool.
ADMITTED_ERRORS = ("worker-died", "machine-error", "internal")


def _project(hist, *labels) -> dict:
    """A histogram as the ``stats`` op shows it: count and mean over its
    lifetime, max and nearest-rank percentiles over its retained
    observations (zeros when empty)."""
    count, total, kept = hist.summary(*labels)
    return {
        "count": count,
        "mean": round(total / count, 3) if count else 0.0,
        "max": round(kept[-1], 3) if kept else 0.0,
        "p50": round(percentile(kept, 0.50), 3),
        "p90": round(percentile(kept, 0.90), 3),
        "p99": round(percentile(kept, 0.99), 3),
    }


class ServeMetrics:
    """The daemon's one record of its events.

    A thin façade over :class:`repro.obs.metrics.MetricsRegistry`: one
    attribute per instrument so hot-path call sites read as intent
    (``metrics.dedup_hits.inc()``), and gauges whose truth lives
    elsewhere (tenant cache usage) are refreshed at exposition time
    rather than sampled on the request path.  The ``stats`` op is a
    projection of it (:meth:`Daemon.stats_doc`).
    """

    def __init__(self):
        reg = MetricsRegistry()
        self.registry = reg
        self.requests = reg.counter(
            "wrl_requests_total", "Requests received, by op", ("op",))
        self.tenant_requests = reg.counter(
            "wrl_tenant_requests_total",
            "Work (eval/run) requests admitted, by tenant", ("tenant",))
        self.latency = reg.histogram(
            "wrl_request_latency_ms",
            "End-to-end request latency in milliseconds, by op", ("op",))
        self.queue_depth = reg.gauge(
            "wrl_queue_depth", "Requests queued or executing right now")
        self.dedup_hits = reg.counter(
            "wrl_dedup_hits_total",
            "Requests coalesced onto an in-flight identical entry")
        self.overloaded = reg.counter(
            "wrl_overloaded_total", "Requests shed by admission control")
        self.cancelled = reg.counter(
            "wrl_cancelled_total",
            "Subscriptions cancelled by client disconnect")
        self.errors = reg.counter(
            "wrl_request_errors_total",
            "Requests finished with an error, by kind (sheds are "
            "wrl_overloaded_total)", ("kind",))
        self.executed = reg.counter(
            "wrl_executed_total", "Requests finished with a result")
        self.pool_rebuilds = reg.counter(
            "wrl_pool_rebuilds_total",
            "Worker-pool rebuilds after a pool break")
        self.cache_results = reg.counter(
            "wrl_cache_results_total",
            "Instrument-artifact cache outcomes of eval cells", ("kind",))
        self.cache_blobs = reg.gauge(
            "wrl_tenant_cache_blobs",
            "Cached artifacts in the tenant's namespace", ("tenant",))
        self.cache_bytes = reg.gauge(
            "wrl_tenant_cache_bytes",
            "Bytes cached in the tenant's namespace", ("tenant",))
        self.slo_breaches = reg.counter(
            "wrl_slo_breaches_total", "SLO watchdog breaches, by metric",
            ("metric",))
        # The request counter sits on every op's dispatch path, so its
        # per-op children are pre-bound: the hot path is one inc(), not
        # a label coercion + child lookup per request.  Every error kind
        # is bound too, so each reads 0 before its first frame.
        self.requests_by_op = {op: self.requests.labels(op)
                               for op in OPS}
        self.errors_by_kind = {kind: self.errors.labels(kind)
                               for kind in ERROR_KINDS
                               if kind != "overloaded"}

    def refresh_tenant_gauges(self, usage_all: dict) -> None:
        for tenant, usage in usage_all.items():
            self.cache_blobs.labels(tenant).set(usage.get("blobs", 0))
            self.cache_bytes.labels(tenant).set(usage.get("bytes", 0))


class Daemon:
    """The asyncio server; construct, then ``await run()`` (or use
    :class:`DaemonThread` / the ``wrl-serve`` CLI)."""

    def __init__(self, socket_path=None, *, jobs: int | None = None,
                 max_queue: int = DEFAULT_MAX_QUEUE,
                 cache_root=None,
                 tenant_cap: int = DEFAULT_TENANT_CAP,
                 tenant_max_bytes: int | None = None,
                 limit: int = MAX_REQUEST_BYTES,
                 slo_p99_ms: float | None = None,
                 slo_error_rate: float | None = None):
        self.socket_path = Path(socket_path or DEFAULT_SOCKET_NAME)
        self.jobs = jobs if jobs else default_jobs()
        self.max_queue = max(1, max_queue)
        self.limit = limit
        self.tenants = TenantCaches(cache_root, cap=tenant_cap,
                                    max_bytes=tenant_max_bytes)
        self.started = time.monotonic()
        self.metrics = ServeMetrics()
        self.slo_p99_ms = slo_p99_ms
        self.slo_error_rate = slo_error_rate
        self._slo_last_breach: dict | None = None
        self._slo_last_emit: dict[str, float] = {}
        self.pool: ProcessPoolExecutor | None = None
        #: Every admitted entry until it finishes, by dedup key: queued,
        #: dispatched or awaiting a probe.  Its size is the queue depth.
        self._inflight: dict[str, _Entry] = {}
        #: Admissions held back while pool-break suspects are probed.
        self._held: deque[_Entry] = deque()
        self._breaks = PoolBreakPolicy(lambda entry: entry.retries)
        self._server = None
        self._stop: asyncio.Event | None = None

    # ---- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        path = self.socket_path
        if path.exists():
            alive = True
            try:
                _, probe = await asyncio.open_unix_connection(str(path))
                probe.close()
            except OSError:
                alive = False
            if alive:
                raise RuntimeError(
                    f"a daemon is already listening on {path}")
            # Stale socket from a dead daemon: reclaim it.
            path.unlink(missing_ok=True)
        if path.parent and not path.parent.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
        self.pool = ProcessPoolExecutor(max_workers=self.jobs,
                                        initializer=_warm_worker)
        self._stop = asyncio.Event()
        self._server = await asyncio.start_unix_server(
            self._handle, path=str(path), limit=self.limit)

    async def run(self, ready=None) -> None:
        """Serve until :meth:`request_stop`; cleans up socket and pool."""
        await self.start()
        if ready is not None:
            ready.set()
        try:
            await self._stop.wait()
        finally:
            await self.close()

    def request_stop(self) -> None:
        if self._stop is not None:
            self._stop.set()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
            self._server = None
        for entry in list(self._inflight.values()):
            self.metrics.errors_by_kind["shutting-down"].inc()
            entry.publish(error_frame(None, "shutting-down",
                                      "daemon stopping"))
        self._inflight.clear()
        self._held.clear()
        if self.pool is not None:
            self.pool.shutdown(wait=False, cancel_futures=True)
            self.pool = None
        self.socket_path.unlink(missing_ok=True)

    # ---- connection handling ----------------------------------------------

    async def _send(self, writer, frame: dict) -> None:
        writer.write(encode_frame(frame))
        await writer.drain()

    async def _reject(self, writer, req_id, kind: str,
                      message: str) -> None:
        """Answer a request that was never admitted with an error
        frame, counted once by kind."""
        if kind == "overloaded":
            TRACE.count("serve.overloaded")
            self.metrics.overloaded.inc()
        else:
            self.metrics.errors_by_kind[kind].inc()
        with contextlib.suppress(ConnectionError, OSError):
            await self._send(writer, error_frame(req_id, kind, message))

    async def _handle(self, reader, writer) -> None:
        req_id = None
        try:
            try:
                line = await reader.readline()
            except ValueError:
                # StreamReader's limit tripped: the request line never
                # terminated within MAX_REQUEST_BYTES.
                await self._reject(writer, None, "oversized",
                                   f"request exceeds {self.limit} bytes")
                return
            if not line:
                return
            try:
                req = decode_frame(line)
                op = req.get("op")
                req_id = req.get("id")
                if op not in OPS:
                    raise ProtocolError("unknown-op",
                                        f"unknown op {op!r}")
                TRACE.count(f"serve.requests.{op}")
                self.metrics.requests_by_op[op].inc()
                if op == "ping":
                    await self._send(writer, {"type": "pong",
                                              "id": req_id,
                                              "schema": SERVE_SCHEMA})
                    return
                if op == "stats":
                    await self._send(writer, {"type": "stats",
                                              "id": req_id,
                                              "stats": self.stats_doc()})
                    return
                if op == "metrics":
                    await self._send(writer, self.metrics_frame(req_id))
                    return
                if op == "shutdown":
                    await self._send(writer, {"type": "ok",
                                              "id": req_id,
                                              "op": "shutdown"})
                    self.request_stop()
                    return
                entry, sub = self._register(op, req)
            except ProtocolError as exc:
                await self._reject(writer, req_id, exc.kind, str(exc))
                return
            await self._stream(entry, sub, reader, writer)
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    async def _stream(self, entry: _Entry, sub: asyncio.Queue, reader,
                      writer) -> None:
        """Pump the subscription's frames to one client, watching its
        half of the connection so a disconnect cancels *only* this
        subscription (deduped siblings keep their stream)."""
        watcher = asyncio.ensure_future(reader.read(1))
        try:
            while True:
                getter = asyncio.ensure_future(sub.get())
                done, _ = await asyncio.wait(
                    {getter, watcher},
                    return_when=asyncio.FIRST_COMPLETED)
                if getter not in done:
                    getter.cancel()
                    try:
                        data = watcher.result()
                    except (ConnectionError, OSError):
                        data = b""
                    if data:
                        # Spurious extra bytes; keep watching for EOF.
                        watcher = asyncio.ensure_future(reader.read(1))
                        continue
                    self._unsubscribe(entry, sub)
                    return
                frame = getter.result()
                try:
                    await self._send(writer, frame)
                except (ConnectionError, OSError):
                    self._unsubscribe(entry, sub)
                    return
                if frame.get("type") in ("result", "error"):
                    return
        finally:
            watcher.cancel()

    def _unsubscribe(self, entry: _Entry, sub: asyncio.Queue) -> None:
        with contextlib.suppress(ValueError):
            entry.subs.remove(sub)
        TRACE.count("serve.cancelled")
        self.metrics.cancelled.inc()

    # ---- admission, dedup, dispatch ----------------------------------------

    def _register(self, op: str, req: dict) -> tuple[_Entry, asyncio.Queue]:
        tenant = validate_tenant(req.get("tenant"))
        # Accept the client's trace id; mint one for a request without
        # one, so every entry is correlatable either way.
        trace_id = validate_trace_id(req.get("trace_id")) \
            or mint_trace_id()
        retries = options_from_wire(req)
        if op == "eval":
            spec = spec_from_wire(req.get("spec"))
            key = eval_dedup_key(spec, tenant, retries)
            label = spec.task_id
            payload = spec
        else:
            exe, args, stdin, max_insts = run_from_wire(req)
            key = run_dedup_key(exe, args, stdin, max_insts, tenant)
            label = "run:" + hashlib.sha256(exe).hexdigest()[:12]
            payload = (exe, args, stdin, max_insts)

        entry = self._inflight.get(key)
        if entry is not None:
            TRACE.count("serve.dedup_hits")
            self.metrics.dedup_hits.inc()
            sub = asyncio.Queue()
            entry.subs.append(sub)
            # The follower keeps its own trace id but is linked to the
            # executing entry's, so `wrl-trace summary --trace-id` on
            # either id surfaces the relationship.
            TRACE.instant("serve.dedup", "serve", trace_id=trace_id,
                          linked_to=entry.trace_id, task=entry.label)
            sub.put_nowait(heartbeat_frame(
                entry.label, "deduped", subscribers=len(entry.subs),
                trace_id=trace_id, linked_to=entry.trace_id))
            return entry, sub

        depth = len(self._inflight)
        if depth >= self.max_queue:
            raise ProtocolError(
                "overloaded",
                f"{depth} requests in flight (max {self.max_queue}); "
                f"retry later")
        entry = _Entry(key, op, label, payload, tenant, retries,
                       trace_id)
        self._inflight[key] = entry
        sub = asyncio.Queue()
        entry.subs.append(sub)
        TRACE.observe("serve.queue_depth", depth + 1)
        self.metrics.tenant_requests.labels(tenant).inc()
        self.metrics.queue_depth.set(depth + 1)
        entry.publish(heartbeat_frame(label, "queued",
                                      queue_depth=depth + 1,
                                      trace_id=trace_id))
        self._held.append(entry)
        self._pump()
        return entry, sub

    def _submit(self, entry: _Entry, attempt: int = 1) -> None:
        """Ship one entry to the warm pool as its own task."""
        generation = self._breaks.dispatch(entry, attempt)
        entry.t_dispatch_ns = time.monotonic_ns()
        self._record_span("serve.queue", entry.t0_ns, entry.t_dispatch_ns,
                          entry)
        entry.publish(heartbeat_frame(entry.label, "dispatch",
                                      trace_id=entry.trace_id))
        if entry.op == "run":
            call = (_execute_run, *entry.payload, TRACE.enabled,
                    entry.trace_id)
        else:
            # A probe's earlier solo breaks were attempts: the worker
            # gets the retries left, and the record counts them all.
            call = (run_with_retries, entry.payload,
                    self.tenants.cache(entry.tenant),
                    entry.retries - attempt + 1, TRACE.enabled,
                    entry.trace_id)
        loop = asyncio.get_running_loop()
        try:
            fut = loop.run_in_executor(self.pool, *call)
        except BrokenProcessPool as exc:
            # The pool died before its break reached the loop: this
            # entry is implicated like every other one on it.
            fut = loop.create_future()
            fut.set_exception(exc)
        fut.add_done_callback(
            lambda f, g=generation: self._on_done(entry, g, f))

    def _record_span(self, name: str, t0_ns: int, t1_ns: int,
                     entry: _Entry, **extra) -> None:
        """Record a request-lifecycle span onto the ambient tracer.

        Entry lifetimes are event-driven, not lexical, so the span
        context manager does not fit; this writes the finished span
        directly (guarded, so disabled tracing stays free)."""
        if TRACE.enabled:
            TRACE._record(name, "serve", t0_ns, t1_ns,
                          {"task": entry.label, "op": entry.op,
                           "trace_id": entry.trace_id, **extra})

    # ---- completion --------------------------------------------------------

    def _on_done(self, entry: _Entry, generation: int, fut) -> None:
        """An entry's future finished: settle it with the pool-break
        policy, finish it, then dispatch what may go next."""
        try:
            out = fut.result()
        except BrokenProcessPool:
            self._on_break(generation)
            return
        except asyncio.CancelledError:
            return
        except Exception as exc:                     # noqa: BLE001
            out = exc
        attempt = self._breaks.landed(entry)
        if isinstance(out, Exception):
            self._finish_error(entry, "internal",
                               f"{type(out).__name__}: {out}")
        elif entry.op == "run":
            self._finish_run(entry, out)
        else:
            out.attempts += attempt - 1
            self._finish_eval(entry, out)
        self._pump()

    def _finish_eval(self, entry: _Entry, rec: TaskResult) -> None:
        # The worker's span snapshot is merged into the daemon's trace
        # under the request's id, then stripped: result frames stay
        # byte-identical whether or not tracing is on.
        snap, rec.trace = rec.trace, None
        if snap and TRACE.enabled:
            TRACE.merge(snap)
        kind = "miss" if rec.instr_compiled else "hit"
        self.metrics.cache_results.labels(kind).inc()
        self._finish_result(entry, {"type": "result",
                                    "record": asdict(rec)})

    def _finish_run(self, entry: _Entry, reply: dict) -> None:
        snap = reply.pop("trace", None)
        if snap and TRACE.enabled:
            TRACE.merge(snap)
        if "fault" in reply:
            self._finish_error(entry, "machine-error", reply["fault"])
        else:
            self._finish_result(entry, {"type": "result", "run": reply})

    def _on_break(self, generation: int) -> None:
        """A future raised ``BrokenProcessPool``: the shared policy
        decides who pays (:class:`repro.eval.parallel.PoolBreakPolicy`);
        the pool is rebuilt once per break."""
        dead = self._breaks.broke(generation)
        if dead is None:
            return
        _kill_pool(self.pool)
        self.pool = ProcessPoolExecutor(max_workers=self.jobs,
                                        initializer=_warm_worker)
        TRACE.count("serve.pool_rebuilds")
        self.metrics.pool_rebuilds.inc()
        for entry, attempt in dead:
            if entry.op == "eval":
                self._finish_result(entry, {
                    "type": "result",
                    "record": asdict(worker_died(entry.payload, attempt))})
            else:
                self._finish_error(entry, "worker-died",
                                   "worker process died executing this "
                                   "run")
        self._pump()

    def _pump(self) -> None:
        """After an admission, a completion or a break: while probing,
        dispatch the next suspect alone and hold admissions back; once
        the last probe lands, dispatch everything held."""
        if self._breaks.probing:
            probe = self._breaks.next_probe()
            if probe is not None:
                entry, attempt = probe
                entry.publish(heartbeat_frame(entry.label, "probe",
                                              attempt=attempt,
                                              trace_id=entry.trace_id))
                self._submit(entry, attempt)
            return
        while self._held:
            self._submit(self._held.popleft())

    def _finish_result(self, entry: _Entry, frame: dict) -> None:
        self._inflight.pop(entry.key, None)
        TRACE.count("serve.executed")
        now_ns = time.monotonic_ns()
        latency = (time.monotonic() - entry.t0) * 1000.0
        TRACE.observe("serve.latency_ms", latency)
        if entry.t_dispatch_ns is not None:
            self._record_span("serve.execute", entry.t_dispatch_ns,
                              now_ns, entry)
        self._record_span("serve.request", entry.t0_ns, now_ns, entry,
                          latency_ms=round(latency, 3),
                          subscribers=len(entry.subs))
        self.metrics.executed.inc()
        self.metrics.latency.labels(entry.op).observe(latency)
        self.metrics.queue_depth.set(len(self._inflight))
        entry.publish(frame)
        self._check_slo()

    def _finish_error(self, entry: _Entry, kind: str,
                      message: str) -> None:
        self._inflight.pop(entry.key, None)
        TRACE.count("serve.request_errors")
        self._record_span("serve.request", entry.t0_ns,
                          time.monotonic_ns(), entry, error=kind)
        self.metrics.errors_by_kind[kind].inc()
        self.metrics.queue_depth.set(len(self._inflight))
        entry.publish(error_frame(None, kind, message))
        self._check_slo()

    # ---- SLO watchdog ------------------------------------------------------

    def _slo_window(self) -> dict:
        """Current 60s-window p99 latency and error rate (the
        watchdog's view; zeros while the window is empty)."""
        lats = sorted(self.metrics.latency.window_values(60))
        err = sum(self.metrics.errors_by_kind[kind].rate(60)
                  for kind in ADMITTED_ERRORS)
        done = self.metrics.executed.rate(60)
        total = err + done
        return {
            "p99_ms": round(percentile(lats, 0.99), 3),
            "error_rate": round(err / total, 4) if total else 0.0,
            "samples": len(lats),
        }

    def _check_slo(self) -> None:
        """Compare the rolling 60s window against the configured
        thresholds; called on every terminal completion."""
        if self.slo_p99_ms is None and self.slo_error_rate is None:
            return
        window = self._slo_window()
        if self.slo_p99_ms is not None and window["samples"] \
                and window["p99_ms"] > self.slo_p99_ms:
            self._breach("p99_ms", window["p99_ms"], self.slo_p99_ms)
        if self.slo_error_rate is not None \
                and window["error_rate"] > self.slo_error_rate:
            self._breach("error_rate", window["error_rate"],
                         self.slo_error_rate)

    def _breach(self, metric: str, value: float,
                threshold: float) -> None:
        self.metrics.slo_breaches.labels(metric).inc()
        self._slo_last_breach = {
            "metric": metric, "value": value, "threshold": threshold,
            "uptime_s": round(time.monotonic() - self.started, 3),
        }
        # Structured breach events are rate-limited to one per second
        # per metric: a sustained breach shouldn't flood the trace with
        # one event per completed request.
        now = time.monotonic()
        if now - self._slo_last_emit.get(metric, -1e9) >= 1.0:
            self._slo_last_emit[metric] = now
            TRACE.instant("slo.breach", "serve", metric=metric,
                          value=value, threshold=threshold)

    # ---- stats -------------------------------------------------------------

    def metrics_frame(self, req_id) -> dict:
        """The terminal frame of the ``metrics`` op: Prometheus text
        plus the JSON document, gauges refreshed at exposition time."""
        self.metrics.queue_depth.set(len(self._inflight))
        self.metrics.refresh_tenant_gauges(self.tenants.usage_all())
        return {"type": "metrics", "id": req_id, "enabled": True,
                "text": self.metrics.registry.render_text(),
                "metrics": self.metrics.registry.render_doc()}

    def stats_doc(self) -> dict:
        """The SLO view served by the ``stats`` op: a projection of the
        metrics registry."""
        m = self.metrics
        requests = {op: int(n) for (op,), n in m.requests.by_label().items()}
        eligible = requests["eval"] + requests["run"]
        dedup_hits = int(m.dedup_hits.total())
        return {
            "schema": SERVE_SCHEMA,
            "uptime_s": round(time.monotonic() - self.started, 3),
            "jobs": self.jobs,
            "max_queue": self.max_queue,
            "queue_depth": len(self._inflight),
            "requests": requests,
            "dedup_hits": dedup_hits,
            "dedup_rate": round(dedup_hits / eligible, 4)
            if eligible else 0.0,
            "overloaded": int(m.overloaded.total()),
            "cancelled": int(m.cancelled.total()),
            "executed": int(m.executed.total()),
            "errors": int(m.errors.total()),
            "pool_rebuilds": int(m.pool_rebuilds.total()),
            "latency_ms": _project(m.latency),
            "latency_ms_by_op": {op: _project(m.latency, op)
                                 for op in ("eval", "run")},
            "slo": {
                "configured": self.slo_p99_ms is not None
                or self.slo_error_rate is not None,
                "p99_ms": self.slo_p99_ms,
                "error_rate": self.slo_error_rate,
                "window_s": 60,
                "breaches": {metric: int(n) for (metric,), n
                             in m.slo_breaches.by_label().items()},
                "last_breach": self._slo_last_breach,
                "current": self._slo_window(),
            },
            "tenants": self.tenants.usage_all(),
        }


# ---- embedding helper (tests, bench) ---------------------------------------

class DaemonThread:
    """Run a :class:`Daemon` on a dedicated event-loop thread.

    The in-process twin of the ``wrl-serve`` CLI — same daemon, same
    socket protocol — used by the bench harness and the test suite so
    client and server can live in one process.
    """

    def __init__(self, **daemon_kwargs):
        self.daemon = Daemon(**daemon_kwargs)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._failure: BaseException | None = None

    @property
    def socket_path(self) -> Path:
        return self.daemon.socket_path

    def __enter__(self) -> "DaemonThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def start(self, timeout: float = 60.0) -> "DaemonThread":
        ready = threading.Event()

        def target():
            try:
                asyncio.run(self._amain(ready))
            except BaseException as exc:         # noqa: BLE001
                self._failure = exc
            finally:
                ready.set()

        self._thread = threading.Thread(target=target, daemon=True,
                                        name="wrl-serve")
        self._thread.start()
        if not ready.wait(timeout):
            raise RuntimeError("daemon did not start in time")
        if self._failure is not None:
            raise RuntimeError("daemon failed to start") \
                from self._failure
        return self

    async def _amain(self, ready: threading.Event) -> None:
        self._loop = asyncio.get_running_loop()
        await self.daemon.run(ready)

    def stop(self, timeout: float = 60.0) -> None:
        loop = self._loop
        if loop is not None and not loop.is_closed():
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(self.daemon.request_stop)
        if self._thread is not None:
            self._thread.join(timeout)


# ---- CLI -------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wrl-serve",
        description="Persistent instrumentation daemon: dedup, "
                    "admission control, per-tenant cache quotas over a "
                    "warm worker pool.  wrl-run/wrl-eval connect with "
                    "--server (or WRL_SERVER).")
    parser.add_argument("--socket", default=None, metavar="PATH",
                        help=f"unix socket path (default: $WRL_SERVER "
                             f"or ./{DEFAULT_SOCKET_NAME})")
    parser.add_argument("--jobs", type=int, default=default_jobs(),
                        help="warm worker processes (default: CPUs "
                             "this process may run on)")
    parser.add_argument("--max-queue", type=int,
                        default=DEFAULT_MAX_QUEUE,
                        help="admission cap: queued+executing requests "
                             "before shedding 'overloaded' (default 64)")
    parser.add_argument("--cache-dir", default=None,
                        help="cache root; tenant namespaces live under "
                             "<root>/tenants/ (default: $WRL_CACHE_DIR "
                             "or .repro-cache/)")
    parser.add_argument("--tenant-cap", type=int,
                        default=DEFAULT_TENANT_CAP,
                        help="per-tenant cache entry quota "
                             "(default 256)")
    parser.add_argument("--tenant-max-bytes", type=int, default=None,
                        help="per-tenant cache byte quota "
                             "(default: none)")
    parser.add_argument("--max-request", type=int,
                        default=MAX_REQUEST_BYTES,
                        help="request size limit in bytes; larger "
                             "requests get a structured 'oversized' "
                             "error")
    parser.add_argument("--trace", default=trace_path_from_env(),
                        metavar="PATH",
                        help="write a structured trace (spans, serve.* "
                             "counters/histograms) on exit; default: "
                             "$WRL_TRACE")
    parser.add_argument("--slo-p99-ms", type=float, default=None,
                        metavar="MS",
                        help="SLO watchdog: breach when rolling-60s p99 "
                             "latency exceeds MS")
    parser.add_argument("--slo-error-rate", type=float, default=None,
                        metavar="FRACTION",
                        help="SLO watchdog: breach when rolling-60s "
                             "error rate exceeds FRACTION (0..1)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.max_queue < 1:
        parser.error("--max-queue must be >= 1")
    if args.max_request < 1024:
        parser.error("--max-request must be >= 1024")
    if args.tenant_cap < 1:
        parser.error("--tenant-cap must be >= 1")
    if args.tenant_max_bytes is not None and args.tenant_max_bytes < 1:
        parser.error("--tenant-max-bytes must be >= 1")
    if args.slo_p99_ms is not None and args.slo_p99_ms <= 0:
        parser.error("--slo-p99-ms must be > 0")
    if args.slo_error_rate is not None \
            and not 0 < args.slo_error_rate <= 1:
        parser.error("--slo-error-rate must be in (0, 1]")

    from .protocol import server_path_from_env
    socket_path = args.socket or server_path_from_env() \
        or DEFAULT_SOCKET_NAME
    daemon = Daemon(socket_path, jobs=args.jobs, max_queue=args.max_queue,
                    cache_root=args.cache_dir,
                    tenant_cap=args.tenant_cap,
                    tenant_max_bytes=args.tenant_max_bytes,
                    limit=args.max_request,
                    slo_p99_ms=args.slo_p99_ms,
                    slo_error_rate=args.slo_error_rate)

    if args.trace:
        TRACE.reset()
        TRACE.enable()

    async def _amain() -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(sig, daemon.request_stop)
        ready = asyncio.Event()
        serving = asyncio.create_task(daemon.run(ready))
        await ready.wait()
        print(f"wrl-serve: listening on {daemon.socket_path} "
              f"(jobs={daemon.jobs}, queue cap {daemon.max_queue})",
              flush=True)
        await serving

    try:
        asyncio.run(_amain())
    except RuntimeError as exc:
        print(f"wrl-serve: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.trace:
            TRACE.write(Path(args.trace))
            TRACE.disable()
            print(f"wrl-serve: wrote trace to {args.trace}",
                  file=sys.stderr)
    doc = daemon.stats_doc()
    print(f"wrl-serve: served {doc['executed']} request(s), "
          f"{doc['dedup_hits']} dedup hit(s), "
          f"{doc['overloaded']} shed; stopping", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
