"""serve-mix: two closed-loop clients against a ``wrl-serve`` daemon.

The daemon runs as ``python -m repro.serve`` in its own process (an
in-process ``DaemonThread`` would share the interpreter lock with the
clients), with its default pool width, a private cache root and a
private socket.  Two client threads each keep one connection open at a
time and send the next request when the last reply arrived.  Requests
are a seeded stream over two tenants: ``run`` requests carry a plain
executable, ``eval`` requests a TaskSpec.  This is the one workload
where the protocol, admission, dedup, batching, the pool hop and the
tenant caches do most of the work; its machine work is warm and short.
"""

from __future__ import annotations

import base64
import os
import socket
import subprocess
import sys
import threading
import time

from . import gen, measure, menus, report
from .phase import Ledger, Outcome, done

NAME = "serve-mix"
#: Rounds of an untraced run: five rounds of 24 requests pass the
#: 100-op floor.
ROUNDS = 5
REQUEST_TIMEOUT_S = 120.0


class Reply:
    """What one request saw at the client: frame arrival times (ns) and
    the decoded terminal frame."""

    def __init__(self, req: gen.Request, step: int):
        self.req = req
        self.step = step
        self.t_write = 0
        self.t_admit = None        # "queued" or "deduped" heartbeat
        self.t_dispatch = None     # "dispatch" heartbeat
        self.t_end = 0
        self.deduped = False
        self.frame: dict = {}
        self.error: str | None = None

    @property
    def ms(self) -> float:
        return (self.t_end - self.t_write) / 1e6


class ServeMix:
    def __init__(self, seed: int, oracle):
        self.seed = seed
        self.oracle = oracle
        self.proc = None
        self.replies: list[Reply] = []

    # ---- set-up and teardown --------------------------------------------

    def setup(self, box, spans=None) -> None:
        """Compile the workloads into the run's fresh cache, start the
        daemon, and wait until it answers a ping."""
        from repro.eval import TaskSpec
        from repro.serve.protocol import (TERMINAL_TYPES, decode_frame,
                                          encode_frame, spec_to_wire)
        from repro.workloads import build_workload
        self._encode, self._decode = encode_frame, decode_frame
        self._terminal = TERMINAL_TYPES
        self._task_spec, self._spec_to_wire = TaskSpec, spec_to_wire
        self.exe_b64 = {w: base64.b64encode(build_workload(w).to_bytes())
                        .decode() for w in menus.WORKLOADS}
        sock = box.root / "serve.sock"
        rel = os.path.relpath(sock)
        self.sock_path = rel if len(rel) < len(str(sock)) else str(sock)
        log = open(box.root / "daemon.log", "wb")
        t0 = time.perf_counter_ns()
        with log:
            self.proc = box.spawn(
                [sys.executable, "-m", "repro.serve", "--socket",
                 "serve.sock", "--cache-dir", str(box.serve_dir)],
                cwd=box.root, stdin=subprocess.DEVNULL, stdout=log,
                stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                self.roundtrip({"op": "ping"})
                break
            except OSError:
                if self.proc.poll() is not None or \
                        time.monotonic() > deadline:
                    raise RuntimeError(
                        "wrl-serve did not answer a ping; see daemon.log")
                time.sleep(0.01)
        self.ready_ms = (time.perf_counter_ns() - t0) / 1e6
        if spans is not None:
            spans.add("serve.ready", t0, time.perf_counter_ns())

    def finish(self, box) -> tuple[dict, list[str], int]:
        """Daemon peak RSS, its ``stats``, then shut it down and wait for
        it; the sandbox then requires its workers gone too.  Returns
        (values, failures, checks run) like the in-process workloads."""
        pids = [self.proc.pid] + measure.descendants(self.proc.pid)
        box.watch(pids)
        values = {"peak_rss_mb": measure.peak_rss_mb(pids),
                  "sim_cycles_ratio": self.cycles_ratio()}
        self.stats = self.roundtrip({"op": "stats"}).get("stats", {})
        self.roundtrip({"op": "shutdown"})
        self.proc.wait(30)
        return values, [], 0

    # ---- transport --------------------------------------------------------

    def roundtrip(self, request: dict, reply: Reply | None = None) -> dict:
        """Send one request on a fresh connection; return the terminal
        frame, stamping heartbeat arrival times onto ``reply``."""
        clock = time.perf_counter_ns
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(REQUEST_TIMEOUT_S)
            sock.connect(self.sock_path)
            if reply is not None:
                reply.t_write = clock()
            sock.sendall(self._encode(request))
            with sock.makefile("rb") as stream:
                for line in stream:
                    now = clock()
                    frame = self._decode(line)
                    if frame.get("type") in self._terminal:
                        if reply is not None:
                            reply.t_end = now
                        return frame
                    phase = (frame.get("args") or {}).get("phase")
                    if reply is None:
                        continue
                    if phase in ("queued", "deduped") and \
                            reply.t_admit is None:
                        reply.t_admit = now
                        reply.deduped = phase == "deduped"
                    elif phase == "dispatch":
                        reply.t_dispatch = now
        raise OSError("daemon closed the connection without a reply")

    # ---- requests ----------------------------------------------------------

    def request_doc(self, req: gen.Request, rid: str) -> dict:
        if req.kind == "run":
            return {"op": "run", "id": rid, "tenant": req.tenant,
                    "exe": self.exe_b64[req.workload], "args": [req.arg],
                    "max_insts": 500_000_000, "fuse": True, "jit": True}
        spec = self._task_spec(tool=req.tool, workload=req.workload,
                               opt=req.opt, wl_args=(req.arg,))
        return {"op": "eval", "id": rid, "tenant": req.tenant,
                "spec": self._spec_to_wire(spec), "fuse": True,
                "retries": 1}

    def send(self, req: gen.Request, client: int, step: int) -> Reply:
        reply = Reply(req, step)
        try:
            reply.frame = self.roundtrip(
                self.request_doc(req, f"c{client}-{step}"), reply)
        except Exception as exc:                         # noqa: BLE001
            # A client thread must finish its side of the round whatever
            # one request does; the failure is counted, not raised.
            reply.t_end = reply.t_end or time.perf_counter_ns()
            reply.error = f"{req}: {type(exc).__name__}: {exc}"
            return reply
        reply.error = self.check(reply)
        return reply

    def check(self, reply: Reply) -> str | None:
        """Typed error frames, wrong output and impure records fail."""
        req, frame = reply.req, reply.frame
        if frame.get("type") == "error":
            err = frame.get("error") or {}
            return f"{req}: {err.get('kind')}: {err.get('message')}"
        if req.kind == "run":
            run = frame.get("run") or {}
            if run.get("timeout") or "fault" in run:
                return f"{req}: {run.get('message') or run.get('fault')}"
            return self.oracle.check_run(
                req.workload, req.arg, run.get("status"),
                base64.b64decode(run.get("stdout", "")))
        rec = frame.get("record") or {}
        if rec.get("status") != "ok" or not rec.get("pristine"):
            return f"{req}: record {rec.get('status')}: {rec.get('error')}"
        return self.oracle.mismatch(req.workload, req.arg,
                                    rec.get("instr_status"),
                                    rec.get("stdout_sha"))

    # ---- the phase --------------------------------------------------------

    def phase(self, seconds: float, rounds: int | None,
              spans=None) -> Ledger:
        """Rounds of steps: both clients work through their side of a
        round concurrently, meeting at a barrier before each paired
        step; the round ends when both are done.  Traced, each reply's
        frame times become spans between rounds, off the clients' path."""
        ledger = Ledger()
        started = time.perf_counter()
        step_no = 0
        self.bookkeeping_s = 0.0
        for rnd in gen.serve_rounds(self.seed):
            barrier = threading.Barrier(menus.SERVE_CLIENTS)
            results: list[list[Reply]] = [[] for _ in
                                          range(menus.SERVE_CLIENTS)]

            def client(idx: int, rnd=rnd, first=step_no) -> None:
                for k, step in enumerate(rnd):
                    if step[0] is step[1]:
                        try:
                            barrier.wait(REQUEST_TIMEOUT_S)
                        except threading.BrokenBarrierError:
                            pass
                    results[idx].append(self.send(step[idx], idx,
                                                  first + k))

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(menus.SERVE_CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            step_no += len(rnd)
            t0 = time.perf_counter()
            for replies in results:
                for reply in replies:
                    if spans is not None:
                        self._record(spans, reply, len(self.replies))
                    self.replies.append(reply)
                    ledger.outcomes.append(Outcome(reply.ms, reply.error,
                                                   wall_ms=reply.ms))
            if spans is not None:
                self.bookkeeping_s += time.perf_counter() - t0
            ledger.rounds += 1
            if done(ledger, started, seconds, rounds):
                break
        ledger.phase_s = ledger.wall_s = self.phase_s = \
            time.perf_counter() - started
        return ledger

    @staticmethod
    def _record(spans, reply: Reply, op: int) -> None:
        """The request as a root span tiled by its client-side phases:
        write -> admitted (queued/deduped) -> dispatched -> terminal."""
        if not reply.t_write:                   # never got as far as a write
            return
        root = spans.add("op", reply.t_write, reply.t_end, -1, op)
        if reply.t_admit is None:
            return
        spans.add("serve.admit", reply.t_write, reply.t_admit, root, op)
        start = reply.t_admit
        if reply.t_dispatch is not None:
            spans.add("serve.queue", reply.t_admit, reply.t_dispatch, root,
                      op)
            start = reply.t_dispatch
        spans.add("serve.exec", start, reply.t_end, root, op)

    # ---- results -----------------------------------------------------------

    def _ok(self, kind: str, rounds: int | None = None) -> list[Reply]:
        last = None if rounds is None else \
            rounds * menus.SERVE_STEPS_PER_ROUND
        return [r for r in self.replies if r.error is None
                and r.req.kind == kind and (last is None or r.step < last)]

    def cycles_ratio(self) -> float:
        """Instrumented / uninstrumented cycles over the distinct eval
        cells of the first ``ROUNDS`` rounds, which every untraced run
        completes, so the value is fixed by the seed: a geometric mean
        per tool, then across tools, so that a seed that happens to ask
        for one more inline cell does not weigh inline more."""
        ratios: dict[gen.Request, float] = {}
        for r in self._ok("eval", ROUNDS):
            rec = r.frame["record"]
            ratios[r.req] = rec["instr_cycles"] / rec["base_cycles"]
        by_tool: dict[str, list[float]] = {}
        for req, ratio in ratios.items():
            by_tool.setdefault(req.tool, []).append(ratio)
        return measure.geomean(measure.geomean(v) for v in
                               by_tool.values()) if by_tool else 0.0

    def layer_values(self, spans, ledger: Ledger) -> dict[str, float]:
        """Per-layer values seen from the client and the stats op."""
        def ms(pairs):
            vals = [(b - a) / 1e6 for a, b in pairs]
            return sum(vals) / len(vals) if vals else 0.0

        ok = [r for r in self.replies if r.error is None]
        admitted = [r for r in ok if r.t_admit is not None]
        out = report.span_layers(spans, {i for i, _ in
                                         enumerate(self.replies)})
        out["serve.ready_ms"] = self.ready_ms
        out["serve.admit_ms"] = ms((r.t_write, r.t_admit) for r in admitted)
        out["serve.queue_ms"] = ms((r.t_admit, r.t_dispatch)
                                   for r in admitted if r.t_dispatch)
        out["serve.exec_ms"] = ms((r.t_dispatch or r.t_admit, r.t_end)
                                  for r in admitted)
        stats = self.stats
        eligible = sum((stats.get("requests") or {}).get(op, 0)
                       for op in ("eval", "run"))
        out["serve.dedup_share"] = \
            stats.get("dedup_hits", 0) / eligible if eligible else 0.0
        out["serve.batch_size.mean"] = \
            (stats.get("batch_size") or {}).get("mean", 0.0)
        out["serve.errors"] = stats.get("errors", 0)
        out["serve.pool_rebuilds"] = stats.get("pool_rebuilds", 0)
        evals = self._ok("eval")
        recs = [r.frame["record"] for r in evals]
        if recs:
            out["eval.cache_hit_share"] = \
                sum(not rec["instr_compiled"] for rec in recs) / len(recs)
            out["worker.task_ms"] = \
                sum(rec["wall_s"] for rec in recs) * 1e3 / len(recs)
            out.update(report.mean_counts(
                [{"atom.points": rec["points"],
                  "atom.calls_added": rec["calls_added"]} for rec in recs],
                ("atom.points", "atom.calls_added")))
        leaders = [r for r in evals if r.t_dispatch and not r.deduped]
        if leaders:
            out["serve.pool_ms"] = sum(
                (r.t_end - r.t_dispatch) / 1e6
                - r.frame["record"]["wall_s"] * 1e3
                for r in leaders) / len(leaders)
        runs = [r.frame["run"] for r in self._ok("run")]
        out.update(report.mean_counts(
            [{"machine.insts": run.get("insts", 0),
              "machine.cycles": run.get("cycles", 0),
              **{"machine." + k: v
                 for k, v in (run.get("jit_stats") or {}).items()}}
             for run in runs], report.MACHINE_COUNTS))
        # Span bookkeeping runs between rounds, so it delays the clients
        # by its whole duration: overhead on throughput.
        out["trace_overhead"] = \
            self.phase_s / (self.phase_s - self.bookkeeping_s)
        return out
