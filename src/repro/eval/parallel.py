"""Shard-aware parallel evaluation pipeline (``wrl-eval``).

The paper's evaluation is a (tool × workload × opt-level) matrix; this
module fans that matrix out across a ``ProcessPoolExecutor`` work queue
with:

* **deterministic shard assignment** — :func:`shard_of` hashes the task
  id, so a matrix split ``--shard i/n`` across n independent invocations
  covers every cell exactly once regardless of scheduling;
* **per-task timeout and retry** — a deterministic instruction-budget
  timeout inside the worker (surfaced as a ``timeout`` record via
  :class:`~repro.eval.errors.EvalTimeout`) plus an optional wall-clock
  backstop in the parent that kills and replaces the pool, quarantining
  the flaky task instead of aborting the whole run;
* **structured per-task records** — :class:`TaskResult` carries status,
  cycles, instruction counts, wall time, instrumentation stats, content
  hashes of the observable outputs, and cache effectiveness, and its
  :meth:`TaskResult.identity` tuple is the bit-identical contract the
  conformance suite checks serial-vs-parallel and run-vs-rerun.

Workers share compiled artifacts through the content-addressed on-disk
store (:mod:`repro.eval.cache`), so a warm cache makes a repeat matrix
run execute zero compiles.  A cell's workload comes from the process
default store (``WRL_CACHE_DIR``/``WRL_CACHE``, which workers inherit);
its tool artifacts come from the task's one store, the default one
unless the serve daemon passes a tenant's.  ``jobs=0`` runs the same
records inline in the calling process — the serial reference the
differential tests compare against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                ThreadPoolExecutor, wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..atom import OptLevel
from ..obs import (TRACE, mint_trace_id, trace_id_from_env,
                   trace_path_from_env)
from ..obs.runtime import ENV_HEARTBEAT
from ..tools import TOOL_NAMES, get_tool
# The module, not its names: repro.workloads imports repro.eval.cache,
# so it can still be initialising when this module loads.
from .. import workloads as _workloads
from . import runner
from .cache import (ENV_DIR, ENV_TOGGLE, cache_enabled, default_cache_dir,
                    get_default_cache)
from .errors import EvalTimeout

MATRIX_SCHEMA = "repro-eval-matrix/v1"


def default_jobs() -> int:
    """Worker-pool width for this process: the CPUs it may actually
    run on (``sched_getaffinity`` — cgroup/CPU-quota aware), not the
    machine-wide ``cpu_count()``, which oversubscribes the pool inside
    containers pinned to a slice of the host.  Shared by the ``wrl-eval``
    ``--jobs`` default and the serve daemon's pool sizing."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)

#: Compact default matrix: every stock tool over four small workloads at
#: the default opt level (use --all for the full 11 x 20 sweep).
DEFAULT_WORKLOADS = ("fileio", "espresso", "li", "fib")
DEFAULT_OPTS = ("O1",)


# ---- task specification ---------------------------------------------------

@dataclass(frozen=True)
class TaskSpec:
    """One (tool, workload, opt) cell of the evaluation matrix."""

    tool: str
    workload: str
    opt: str = "O1"
    heap_mode: str = "linked"
    tool_args: tuple[str, ...] = ()
    wl_args: tuple[str, ...] = ()
    stdin: bytes = b""
    base_max_insts: int = 500_000_000
    max_insts: int = 2_000_000_000
    #: One untimed run before each timed one — the bench harness
    #: convention.
    warmup: bool = False

    @property
    def task_id(self) -> str:
        extra = ""
        if self.tool_args or self.wl_args or self.stdin:
            extra = ":" + hashlib.sha256(
                repr((self.tool_args, self.wl_args, self.stdin)).encode()
            ).hexdigest()[:12]
        return (f"{self.tool}:{self.workload}:{self.opt}:"
                f"{self.heap_mode}{extra}")


def plan_matrix(tools=TOOL_NAMES, workloads=DEFAULT_WORKLOADS,
                opts=DEFAULT_OPTS, **spec_kw) -> list[TaskSpec]:
    """The full matrix in deterministic workload-major order."""
    return [TaskSpec(tool=t, workload=w, opt=o, **spec_kw)
            for w in workloads for t in tools for o in opts]


def shard_of(spec: TaskSpec, num_shards: int) -> int:
    """Deterministic shard for a task: a hash of its id, not its list
    position, so adding or reordering cells never reshuffles the rest."""
    if num_shards <= 1:
        return 0
    digest = hashlib.sha256(spec.task_id.encode()).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


def select_shard(specs, shard: int, num_shards: int) -> list[TaskSpec]:
    """The subset of ``specs`` assigned to ``shard`` of ``num_shards``."""
    if not 0 <= shard < num_shards:
        raise ValueError(f"shard {shard} not in [0, {num_shards})")
    return [s for s in specs if shard_of(s, num_shards) == shard]


# ---- task records ---------------------------------------------------------

@dataclass
class TaskResult:
    """Structured outcome of one matrix cell.

    Deterministic fields (everything in :meth:`identity`) are
    bit-identical between serial and parallel execution and across
    repeat runs; wall-clock and cache fields are informational.
    """

    tool: str
    workload: str
    opt: str
    heap_mode: str = "linked"
    status: str = "ok"              # ok | timeout | error
    error: str = ""
    attempts: int = 1
    shard: int = 0
    quarantined: bool = False
    wall_s: float = 0.0
    base_status: int = 0
    base_cycles: int = 0
    base_insts: int = 0
    base_wall_s: float = 0.0
    instr_status: int = 0
    instr_cycles: int = 0
    instr_insts: int = 0
    instr_wall_s: float = 0.0
    points: int = 0
    calls_added: int = 0
    #: Instrumented stdout/status match the uninstrumented run — the
    #: paper's pristine-behaviour guarantee, checked per cell.
    pristine: bool = False
    stdout_sha: str = ""
    files_sha: str = ""
    analysis_compiled: bool = False
    instr_compiled: bool = False
    #: Tracer snapshot captured in a worker process (None unless the run
    #: was traced); merged into the parent trace, never part of
    #: :meth:`identity` and stripped from the matrix report.
    trace: dict | None = None

    @classmethod
    def of(cls, spec: TaskSpec, **fields) -> "TaskResult":
        """A record of ``spec``'s cell with ``fields`` set."""
        return cls(tool=spec.tool, workload=spec.workload, opt=spec.opt,
                   heap_mode=spec.heap_mode, **fields)

    def identity(self) -> tuple:
        """Everything that must be bit-identical across runners."""
        return (self.tool, self.workload, self.opt, self.heap_mode,
                self.status, self.base_status, self.base_cycles,
                self.base_insts, self.instr_status, self.instr_cycles,
                self.instr_insts, self.points, self.calls_added,
                self.pristine, self.stdout_sha, self.files_sha)

    @property
    def cycle_overhead(self) -> float:
        if self.status != "ok" or not self.base_cycles:
            return 0.0
        return self.instr_cycles / self.base_cycles


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files_sha(files: dict[str, bytes]) -> str:
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode() + b"\x00")
        digest.update(hashlib.sha256(files[name]).digest())
    return digest.hexdigest()


# ---- worker side ----------------------------------------------------------

#: Uninstrumented runs memoized per process, least recently used
#: first: every tool cell of one workload shares the same baseline, so
#: a worker runs it once.  Bounded because a daemon worker lives as long
#: as the daemon and keys it on client-supplied arguments and stdin.
_base_memo: dict[tuple, tuple] = {}
_BASE_MEMO_CAP = 64


def _timed(run_fn, *, warmup: bool):
    """(result, wall seconds) with the bench warmup convention."""
    if warmup:
        run_fn()
    t0 = time.perf_counter()
    result = run_fn()
    return result, time.perf_counter() - t0


def traced_call(fn, trace: bool, trace_id: str | None):
    """``(fn(), snapshot)``: call ``fn`` with ``trace_id`` as the ambient
    :func:`repro.eval.runner.set_trace_id`.

    With ``trace``, a process that owns the ambient tracer (the serial
    runner) records into it and the snapshot is None.  A pool worker,
    whose tracer is disabled or a fork-inherited copy of the parent's,
    captures privately and returns the snapshot for the parent to
    merge, every event stamped with ``trace_id``.
    """
    capture = trace and not TRACE.owned()
    if capture:
        TRACE.reset()
        TRACE.enable()
    prev_id = runner.current_trace_id()
    runner.set_trace_id(trace_id)
    try:
        result = fn()
    finally:
        runner.set_trace_id(prev_id)
        if capture:
            snap = TRACE.snapshot()
            TRACE.disable()
            TRACE.reset()
    if not capture:
        return result, None
    if trace_id is not None:
        for ev in snap.get("events", ()):
            ev["args"].setdefault("trace_id", trace_id)
    return result, snap


def execute_task(spec: TaskSpec, cache=get_default_cache,
                 trace: bool = False,
                 trace_id: str | None = None) -> TaskResult:
    """Run one cell; never raises — failures become the record status.

    ``cache`` is the store of the cell's tool artifacts, as
    :func:`repro.eval.runner.apply_tool` takes it: the process default
    store unless the serve daemon passes a tenant's ``ArtifactCache``.
    ``trace=True`` captures the cell's spans and counters, shipped back
    in ``TaskResult.trace`` from a pool worker (:func:`traced_call`);
    ``trace_id`` is the request context the cell executes under.
    """
    rec, snap = traced_call(lambda: _execute_task(spec, cache),
                            trace, trace_id)
    rec.trace = snap
    return rec


def _heartbeat(spec: TaskSpec):
    """A HeartbeatWriter when ``WRL_HEARTBEAT`` names a file, else None.

    Heartbeats are observational only: they ride the sampling hook (which
    never perturbs guest state) and touch no :meth:`TaskResult.identity`
    field, so a heartbeat-enabled matrix run stays bit-identical.
    """
    from ..obs.runtime import HeartbeatWriter, heartbeat_path
    path = heartbeat_path()
    if path is None:
        return None
    return HeartbeatWriter(path, spec.task_id)


def _execute_task(spec: TaskSpec, cache) -> TaskResult:
    rec = TaskResult.of(spec)
    analysis_before = runner.COMPILE_COUNTS["analysis"]
    t0 = time.perf_counter()
    task_span = TRACE.span("task", "eval", task=spec.task_id)
    task_span.__enter__()
    if runner.current_trace_id() is not None:
        task_span.add(trace_id=runner.current_trace_id())
    heartbeat = _heartbeat(spec)
    if heartbeat is not None:
        heartbeat.emit("start")
    try:
        app = _workloads.build_workload(spec.workload)
        tool = get_tool(spec.tool)

        base_key = (spec.workload, spec.wl_args, spec.stdin,
                    spec.base_max_insts, spec.warmup)
        memo = _base_memo.pop(base_key, None)
        if memo is None:
            base_sampler = None if heartbeat is None \
                else heartbeat.sampler("base")
            memo = _timed(
                lambda: runner.run_uninstrumented(
                    app, args=spec.wl_args, stdin=spec.stdin,
                    max_insts=spec.base_max_insts, sampler=base_sampler),
                warmup=spec.warmup)
            if len(_base_memo) >= _BASE_MEMO_CAP:
                del _base_memo[next(iter(_base_memo))]
        _base_memo[base_key] = memo
        base, base_wall = memo
        if heartbeat is not None:
            heartbeat.emit("base", insts=base.inst_count,
                           cycles=base.cycles)

        instrumented = runner.apply_tool(
            app, tool, opt=OptLevel[spec.opt], heap_mode=spec.heap_mode,
            tool_args=spec.tool_args, cache=cache)
        instr_sampler = None if heartbeat is None \
            else heartbeat.sampler("instrumented")
        if heartbeat is not None:
            heartbeat.emit("instrumented-built",
                           cache_hit=instrumented.cached)
        instr, instr_wall = _timed(
            lambda: runner.run_instrumented(
                instrumented, args=spec.wl_args, stdin=spec.stdin,
                max_insts=spec.max_insts, sampler=instr_sampler),
            warmup=spec.warmup)

        rec.base_status = base.status
        rec.base_cycles = base.cycles
        rec.base_insts = base.inst_count
        rec.base_wall_s = base_wall
        rec.instr_status = instr.status
        rec.instr_cycles = instr.cycles
        rec.instr_insts = instr.inst_count
        rec.instr_wall_s = instr_wall
        rec.points = instrumented.stats.points
        rec.calls_added = instrumented.stats.calls_added
        rec.pristine = (instr.stdout == base.stdout
                        and instr.status == base.status)
        rec.stdout_sha = _sha(instr.stdout)
        rec.files_sha = _files_sha(instr.files)
        rec.instr_compiled = not instrumented.cached
    except EvalTimeout as exc:
        rec.status = "timeout"
        rec.error = str(exc)
    except Exception as exc:                         # noqa: BLE001
        rec.status = "error"
        rec.error = f"{type(exc).__name__}: {exc}"
    rec.wall_s = time.perf_counter() - t0
    rec.analysis_compiled = \
        runner.COMPILE_COUNTS["analysis"] > analysis_before
    if heartbeat is not None:
        ips = int(rec.instr_insts / rec.instr_wall_s) \
            if rec.instr_wall_s else 0
        heartbeat.emit("done", status=rec.status,
                       insts=rec.instr_insts, ips=ips,
                       cache_hit=not rec.instr_compiled,
                       wall_s=round(rec.wall_s, 3))
    task_span.add(status=rec.status)
    task_span.__exit__(None, None, None)
    return rec


def run_with_retries(spec: TaskSpec, cache=get_default_cache,
                     retries: int = 1, trace: bool = False,
                     trace_id: str | None = None) -> TaskResult:
    """One cell with the serial retry/quarantine semantics.

    This is the *contract* the serve daemon's workers share with the
    inline (``jobs=0``) runner: erroring tasks are retried up to
    ``retries`` times, deterministic timeouts are never retried, and
    the surviving record carries its attempt count with ``quarantined``
    set for any non-ok outcome — so a task that times out under the
    daemon produces the same record as under ``wrl-eval``.
    """
    attempt = 0
    while True:
        attempt += 1
        rec = execute_task(spec, cache, trace, trace_id)
        if rec.status != "error" or attempt > retries:
            break
    rec.attempts = attempt
    rec.quarantined = rec.status != "ok"
    return rec


# ---- the work-queue runner ------------------------------------------------

def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate a broken or wedged pool's workers and shut it down."""
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.terminate()
        except OSError:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def worker_died(spec: TaskSpec, attempts: int) -> TaskResult:
    """The record of a cell whose worker died on its every attempt."""
    return TaskResult.of(spec, status="error", error="worker process died",
                         attempts=attempts, quarantined=True)


class PoolBreakPolicy:
    """Guilt attribution when a crashed worker breaks a process pool.

    One dead worker takes the whole ``ProcessPoolExecutor`` down: every
    future still on it raises ``BrokenProcessPool``, so the guilty item
    cannot be told apart from the innocents beside it.  ``run_matrix``
    and the serve daemon both drive this one policy:

    * a break implicates every item dispatched on the dead pool;
    * the driver rebuilds the pool once per break: the other futures of
      a dead pool report its stale generation, and :meth:`broke`
      ignores them;
    * implicated items become suspects, probed one at a time with
      nothing else dispatched while :attr:`probing`;
    * only a break while alone in flight costs an attempt; past its
      ``retries(item)`` that item is dead (:func:`worker_died`).

    Items are hashable keys (a spec index, a daemon entry); each
    carries its 1-based attempt number.
    """

    def __init__(self, retries):
        self.retries = retries
        self.generation = 0
        self.inflight: dict = {}           # item -> attempt
        self.suspects: deque = deque()     # (item, attempt) to probe
        self.probing = False

    def dispatch(self, item, attempt: int = 1) -> int:
        """Record ``item`` as sent to the current pool; returns the pool
        generation its future reports to :meth:`broke`."""
        self.inflight[item] = attempt
        return self.generation

    def landed(self, item) -> int:
        """``item`` came back without breaking the pool: its attempt."""
        attempt = self.inflight.pop(item)
        if not self.inflight and not self.suspects:
            self.probing = False
        return attempt

    def next_probe(self):
        """The (item, attempt) to dispatch alone next, or None while a
        probe is in flight or no suspect is left."""
        if self.inflight or not self.suspects:
            return None
        return self.suspects.popleft()

    def broke(self, generation: int):
        """A future dispatched on pool ``generation`` raised
        ``BrokenProcessPool``.  None when that pool is already replaced;
        otherwise the driver rebuilds the pool and quarantines the
        returned dead (item, attempt) pairs."""
        if generation != self.generation:
            return None
        self.generation += 1
        implicated = list(self.inflight.items())
        self.inflight.clear()
        dead = []
        if len(implicated) == 1:
            (item, attempt), = implicated
            if attempt > self.retries(item):
                dead.append((item, attempt))
            else:
                self.suspects.append((item, attempt + 1))
        else:
            self.suspects.extend(implicated)
        self.probing = bool(self.suspects)
        return dead


def run_matrix(specs, *, jobs: int = 0, retries: int = 1,
               wall_timeout: float | None = None,
               num_shards: int = 1, progress=None,
               trace_id: str | None = None) -> list[TaskResult]:
    """Execute every spec; results come back in spec order.

    ``jobs=0`` runs inline (the serial reference); ``jobs>=1`` fans out
    over that many worker processes.  A task whose worker raises is
    retried up to ``retries`` times and then quarantined (recorded, not
    fatal); deterministic timeouts (instruction budget) are never
    retried.  ``wall_timeout`` seconds per task is the non-deterministic
    backstop: an overdue worker is killed, the pool is rebuilt, the
    overdue task is quarantined as a timeout, and its innocent in-flight
    siblings are requeued *without* consuming an attempt.  A crashed
    worker breaks the whole pool; :class:`PoolBreakPolicy` decides who
    pays for it.

    When tracing is enabled (:data:`repro.obs.TRACE`), each worker
    captures its own spans and ships them back in ``TaskResult.trace``;
    they are merged into the ambient tracer here, so serial and
    parallel runs produce one coherent trace.
    """
    specs = list(specs)
    results: dict[int, TaskResult] = {}
    trace_on = TRACE.enabled

    def finish(idx: int, rec: TaskResult, attempt: int) -> None:
        rec.attempts = attempt
        rec.shard = shard_of(specs[idx], num_shards)
        if rec.trace is not None:
            TRACE.merge(rec.trace)
            rec.trace = None
        results[idx] = rec
        if progress is not None:
            progress(rec)

    if jobs <= 0:
        for idx, spec in enumerate(specs):
            rec = run_with_retries(spec, retries=retries, trace=trace_on,
                                   trace_id=trace_id)
            finish(idx, rec, rec.attempts)
        return [results[i] for i in range(len(specs))]

    pending: deque[tuple[int, int]] = deque(
        (idx, 1) for idx in range(len(specs)))
    breaks = PoolBreakPolicy(lambda idx: retries)
    pool = ProcessPoolExecutor(max_workers=jobs)
    inflight: dict = {}              # future -> (idx, generation, start)

    def submit(idx: int, attempt: int) -> None:
        fut = pool.submit(execute_task, specs[idx], trace=trace_on,
                          trace_id=trace_id)
        inflight[fut] = (idx, breaks.dispatch(idx, attempt),
                         time.monotonic())

    def rebuild_pool() -> ProcessPoolExecutor:
        for fut in inflight:
            fut.cancel()
        inflight.clear()
        _kill_pool(pool)
        return ProcessPoolExecutor(max_workers=jobs)

    try:
        while pending or breaks.suspects or inflight:
            if breaks.probing:
                probe = breaks.next_probe()
                if probe is not None:
                    submit(*probe)
            else:
                while pending and len(inflight) < jobs:
                    submit(*pending.popleft())

            done, _ = wait(list(inflight), timeout=0.1,
                           return_when=FIRST_COMPLETED)
            broken = None
            for fut in done:
                idx, generation, _ = inflight.pop(fut)
                try:
                    rec = fut.result()
                except BrokenProcessPool:
                    broken = generation
                    continue
                except Exception as exc:             # noqa: BLE001
                    rec = TaskResult.of(
                        specs[idx], status="error",
                        error=f"{type(exc).__name__}: {exc}")
                attempt = breaks.landed(idx)
                if rec.status == "error" and attempt <= retries:
                    pending.append((idx, attempt + 1))
                    continue
                rec.quarantined = rec.status != "ok"
                finish(idx, rec, attempt)
            if broken is not None:
                for idx, attempt in breaks.broke(broken):
                    finish(idx, worker_died(specs[idx], attempt), attempt)
                pool = rebuild_pool()
                continue

            if wall_timeout is not None and inflight:
                now = time.monotonic()
                overdue = [fut for fut, (_, _, t0) in inflight.items()
                           if now - t0 > wall_timeout]
                if overdue:
                    for fut in overdue:
                        idx, _, t0 = inflight.pop(fut)
                        rec = TaskResult.of(
                            specs[idx], status="timeout",
                            error=(f"wall timeout after "
                                   f"{wall_timeout:.1f}s"),
                            wall_s=now - t0, quarantined=True)
                        finish(idx, rec, breaks.landed(idx))
                    # Innocents return to the *front* of the queue in
                    # spec order, at their current attempt: being
                    # collateral costs nothing.
                    innocents = [(idx, breaks.landed(idx))
                                 for idx, _, _ in inflight.values()]
                    for item in sorted(innocents, reverse=True):
                        pending.appendleft(item)
                    pool = rebuild_pool()
    finally:
        _kill_pool(pool)

    return [results[i] for i in range(len(specs))]


def run_matrix_via_server(specs, server, *, tenant=None, jobs: int = 4,
                          retries: int = 1, num_shards: int = 1,
                          progress=None,
                          trace_id: str | None = None) -> list[TaskResult]:
    """Execute every spec through a ``wrl-serve`` daemon (spec order).

    The thin-client counterpart of :func:`run_matrix`: each cell becomes
    one eval request, issued over up to ``jobs`` concurrent connections
    so the daemon can dedup across them and run them in parallel.
    Structured daemon errors (``overloaded``, protocol rejections)
    become error records rather than exceptions, mirroring the local
    runner's never-raise contract; everything in
    :meth:`TaskResult.identity` is byte-identical to a local run because
    the daemon's workers execute the very same :func:`run_with_retries`.
    """
    from ..serve.client import ServeClient, ServeError
    specs = list(specs)
    client = ServeClient(server)
    results: dict[int, TaskResult] = {}

    def one(item):
        idx, spec = item
        try:
            record = client.eval_task(spec, tenant=tenant,
                                      retries=retries, trace_id=trace_id)
            rec = TaskResult(**record)
        except ServeError as exc:
            rec = TaskResult.of(spec, status="error",
                                error=f"serve:{exc.kind}: {exc}",
                                quarantined=True)
        rec.shard = shard_of(spec, num_shards)
        return idx, rec

    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        for idx, rec in pool.map(one, enumerate(specs)):
            results[idx] = rec
            if progress is not None:
                progress(rec)
    return [results[i] for i in range(len(specs))]


# ---- the matrix report ----------------------------------------------------

def default_matrix_path() -> Path:
    """``EVAL_matrix.json`` at the repository root."""
    return Path(__file__).resolve().parents[3] / "EVAL_matrix.json"


def summarize(records) -> dict:
    records = list(records)
    return {
        "total": len(records),
        "ok": sum(r.status == "ok" for r in records),
        "timeout": sum(r.status == "timeout" for r in records),
        "error": sum(r.status == "error" for r in records),
        "quarantined": sum(r.quarantined for r in records),
        "pristine": sum(r.pristine for r in records),
        "analysis_compiles": sum(r.analysis_compiled for r in records),
        "instr_compiles": sum(r.instr_compiled for r in records),
        "wall_s": round(sum(r.wall_s for r in records), 3),
    }


def build_report(records, config: dict) -> dict:
    records = list(records)
    rows = [asdict(rec) for rec in records]
    for row in rows:
        row.pop("trace", None)       # tracer payload, not a result field
    return {
        "schema": MATRIX_SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "config": config,
        "summary": summarize(records),
        "records": rows,
    }


def validate_matrix_report(report: dict) -> None:
    """Raise ValueError when ``report`` does not match the schema."""
    def need(cond, what):
        if not cond:
            raise ValueError(f"bad eval matrix report: {what}")

    need(isinstance(report, dict), "not an object")
    need(report.get("schema") == MATRIX_SCHEMA,
         f"schema != {MATRIX_SCHEMA!r}")
    for key in ("created", "host", "config", "summary", "records"):
        need(key in report, f"missing key {key!r}")
    summary = report["summary"]
    for key in ("total", "ok", "timeout", "error", "quarantined",
                "analysis_compiles", "instr_compiles"):
        need(isinstance(summary.get(key), int), f"summary[{key!r}]")
    records = report["records"]
    need(isinstance(records, list) and records, "empty records")
    need(summary["total"] == len(records), "summary/records mismatch")
    for i, row in enumerate(records):
        for key in ("tool", "workload", "opt", "status", "base_cycles",
                    "instr_cycles", "base_insts", "instr_insts",
                    "points", "stdout_sha", "files_sha", "shard"):
            need(key in row, f"records[{i}] missing {key!r}")
        need(row["status"] in ("ok", "timeout", "error"),
             f"records[{i}] bad status {row['status']!r}")


def load_matrix_report(path: Path | None = None) -> dict | None:
    """Load and validate a committed report; None when absent."""
    path = path or default_matrix_path()
    if not path.exists():
        return None
    report = json.loads(path.read_text())
    validate_matrix_report(report)
    return report


# ---- CLI ------------------------------------------------------------------

def _parse_shard(text: str) -> tuple[int, int]:
    try:
        shard, num = text.split("/")
        shard, num = int(shard), int(num)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected I/N (e.g. 0/2), got {text!r}") from None
    if num < 1 or not 0 <= shard < num:
        raise argparse.ArgumentTypeError(f"shard {shard}/{num} out of range")
    return shard, num


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wrl-eval",
        description="Run the tool x workload x opt evaluation matrix "
                    "through the parallel shard-aware pipeline.")
    parser.add_argument("--tools", default=",".join(TOOL_NAMES),
                        help="comma-separated tool names")
    parser.add_argument("--workloads", default=",".join(DEFAULT_WORKLOADS),
                        help="comma-separated workload names")
    parser.add_argument("--opts", default=",".join(DEFAULT_OPTS),
                        help="comma-separated opt levels (O0..O3)")
    parser.add_argument("--jobs", type=int, default=default_jobs(),
                        help="worker processes (0 = inline/serial; "
                             "default: CPUs this process may run on)")
    parser.add_argument("--server", default=None, metavar="SOCKET",
                        help="run as a thin client against a wrl-serve "
                             "daemon at SOCKET instead of executing "
                             "locally (default: $WRL_SERVER); --jobs "
                             "bounds concurrent requests")
    parser.add_argument("--tenant", default=None,
                        help="cache-namespace tenant for --server "
                             "requests (default: $WRL_TENANT or "
                             "'default')")
    parser.add_argument("--shard", type=_parse_shard, default=(0, 1),
                        metavar="I/N",
                        help="run shard I of N (deterministic split)")
    parser.add_argument("--retries", type=int, default=1,
                        help="retries per erroring task before quarantine")
    parser.add_argument("--timeout", type=float, default=None,
                        help="wall-clock seconds per task (backstop; the "
                             "deterministic limit is --max-insts)")
    parser.add_argument("--max-insts", type=int, default=2_000_000_000,
                        help="instruction budget per instrumented run")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk artifact cache")
    parser.add_argument("--cache-dir", default=None,
                        help="artifact cache root (default: "
                             "$WRL_CACHE_DIR or .repro-cache/)")
    parser.add_argument("--all", action="store_true",
                        help="full matrix: every workload")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: one workload, one tool")
    parser.add_argument("--out", default=str(default_matrix_path()),
                        help="report path (default: repo root)")
    parser.add_argument("--trace", default=trace_path_from_env(),
                        metavar="PATH",
                        help="capture a structured trace of the run "
                             "(.json = Chrome trace event format, "
                             ".jsonl = line-delimited; default: "
                             "$WRL_TRACE)")
    parser.add_argument("--heartbeat", default=None, metavar="PATH",
                        help="append live JSONL progress records "
                             "(task id, insts retired, insts/sec, cache "
                             "hits) to PATH while the matrix runs; "
                             "default: $WRL_HEARTBEAT")
    parser.add_argument("--trace-id", default=trace_id_from_env(),
                        metavar="ID",
                        help="request trace id stamped on every span of "
                             "this invocation (server mode mints one "
                             "when absent; default: $WRL_TRACE_ID)")
    args = parser.parse_args(argv)

    tools = tuple(args.tools.split(","))
    workloads = tuple(args.workloads.split(","))
    opts = tuple(args.opts.split(","))
    if args.all:
        workloads = _workloads.WORKLOAD_NAMES
    if args.quick:
        tools, workloads, opts = tools[:1], workloads[:1], opts[:1]

    for names, known, flag in (
            (tools, TOOL_NAMES, "--tools"),
            (workloads, _workloads.WORKLOAD_NAMES, "--workloads"),
            (opts, tuple(level.name for level in OptLevel), "--opts")):
        unknown = [n for n in names if n not in known]
        if unknown:
            parser.error(f"{flag}: unknown {', '.join(unknown)} "
                         f"(choose from {', '.join(known)})")
    if args.max_insts <= 0:
        parser.error("--max-insts must be positive")
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    out = Path(args.out)
    if not out.parent.is_dir():
        parser.error(f"--out: directory {out.parent} does not exist")
    server = args.server or os.environ.get("WRL_SERVER") or None
    if server and (args.trace or args.timeout is not None
                   or args.no_cache or args.cache_dir or args.heartbeat):
        parser.error("--trace/--timeout/--no-cache/--cache-dir/"
                     "--heartbeat run in-process; drop --server (or "
                     "unset WRL_SERVER) to use them")

    shard, num_shards = args.shard
    specs = plan_matrix(tools, workloads, opts,
                        max_insts=args.max_insts)
    selected = select_shard(specs, shard, num_shards)
    if not selected:
        print(f"wrl-eval: shard {shard}/{num_shards} selected none of "
              f"the {len(specs)} cells; nothing to do")
        return 0
    tenant = args.tenant or os.environ.get("WRL_TENANT") or "default"
    trace_id = args.trace_id
    if server and not trace_id:
        # Thin clients mint the request context so the daemon's spans,
        # the workers' spans, and any client-side trace correlate.
        trace_id = mint_trace_id()

    def progress(rec: TaskResult) -> None:
        mark = {"ok": ".", "timeout": "T", "error": "E"}[rec.status]
        detail = (f"{rec.cycle_overhead:.2f}x cycles"
                  if rec.status == "ok" else rec.error)
        print(f"  [{mark}] {rec.workload}+{rec.tool}@{rec.opt}: {detail}")

    config = {
        "tools": list(tools), "workloads": list(workloads),
        "opts": list(opts), "jobs": args.jobs, "shard": shard,
        "num_shards": num_shards, "retries": args.retries,
        "max_insts": args.max_insts,
    }
    if server:
        print(f"wrl-eval: {len(selected)}/{len(specs)} cells "
              f"(shard {shard}/{num_shards}) via server {server}, "
              f"tenant={tenant}, {args.jobs} concurrent requests, "
              f"trace_id={trace_id}")
        config.update(server=server, tenant=tenant)
        t0 = time.perf_counter()
        records = run_matrix_via_server(
            selected, server, tenant=tenant, jobs=max(1, args.jobs),
            retries=args.retries, num_shards=num_shards,
            progress=progress, trace_id=trace_id)
    else:
        # Workers inherit the environment (fork and spawn alike), so the
        # env vars are the one channel that reaches every executor.
        if args.cache_dir:
            os.environ[ENV_DIR] = str(Path(args.cache_dir).resolve())
        if args.no_cache:
            os.environ[ENV_TOGGLE] = "0"
        if args.heartbeat:
            os.environ[ENV_HEARTBEAT] = str(Path(args.heartbeat).resolve())
        config["cache"] = cache_enabled()
        cache_root = (str(default_cache_dir()) if config["cache"]
                      else "(disabled)")
        print(f"wrl-eval: {len(selected)}/{len(specs)} cells "
              f"(shard {shard}/{num_shards}), jobs={args.jobs}, "
              f"cache={cache_root}")
        if args.trace:
            TRACE.reset()
            TRACE.enable()
        t0 = time.perf_counter()
        try:
            with TRACE.span("wrl-eval", "eval", cells=len(selected),
                            jobs=args.jobs):
                records = run_matrix(selected, jobs=args.jobs,
                                     retries=args.retries,
                                     wall_timeout=args.timeout,
                                     num_shards=num_shards,
                                     progress=progress, trace_id=trace_id)
        finally:
            if args.trace:
                TRACE.write(Path(args.trace))
                TRACE.disable()
                print(f"wrote trace to {args.trace}")
            if args.heartbeat:
                print(f"heartbeats in {args.heartbeat} "
                      f"(tail -f while running; wrl-trace summary to "
                      f"aggregate)")
    elapsed = time.perf_counter() - t0

    report = build_report(records, config)
    validate_matrix_report(report)
    out.write_text(json.dumps(report, indent=2) + "\n")
    summary = report["summary"]
    print(f"wrote {out}")
    print(f"  {summary['ok']}/{summary['total']} ok, "
          f"{summary['timeout']} timeout, {summary['error']} error, "
          f"{summary['quarantined']} quarantined")
    if server:
        print(f"  wall: {elapsed:.1f}s end-to-end via {server}")
    else:
        print(f"  compiles: {summary['analysis_compiles']} analysis, "
              f"{summary['instr_compiles']} instrument "
              f"(0 of each = fully warm cache)")
        print(f"  wall: {elapsed:.1f}s end-to-end, "
              f"{summary['wall_s']:.1f}s of task time")
    return 0 if summary["ok"] == summary["total"] else 1


if __name__ == "__main__":
    sys.exit(main())
