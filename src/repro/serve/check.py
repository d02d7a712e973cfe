"""``make check-serve``: differential byte-identity replay vs the daemon.

The daemon's core contract is that being served is *invisible in the
artifacts*: everything a client gets back — exit status, stdout,
stderr, output files, simulated cycles, retired instruction counts,
eval records — must be byte-identical to what the cold-process path
(``wrl-run`` / ``wrl-eval`` without ``--server``) produces.  This
harness enforces it end to end:

1. start a real ``wrl-serve`` daemon subprocess (fresh socket, fresh
   cache root, trace enabled);
2. compile a slice of the fuzz corpus and compute cold in-process
   reference fingerprints for each program;
3. replay every program through thin clients *concurrently and in
   duplicate* — the duplicates must coalesce (dedup) and every reply
   must match its reference byte-for-byte;
4. replay a few eval matrix cells and compare the daemon's records
   against serial ``run_with_retries`` references on the
   ``TaskResult.identity()`` contract;
5. assert the ``metrics`` op emits parseable Prometheus text covering
   the core serving signals;
6. assert the daemon's measured dedup hit rate clears a floor, and
   that shutdown reaps the socket.

On failure the daemon trace and a failures report land in
``--artifacts`` for CI to upload.
"""

from __future__ import annotations

import argparse
import base64
import json
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from ..eval.parallel import TaskResult, TaskSpec, run_with_retries
from ..eval.runner import run_uninstrumented
from ..mlc import build_executable
from .client import ServeClient
from .protocol import ServeError

DEFAULT_CORPUS = Path("tests/fuzz/corpus")
#: Eval cells replayed through the daemon and diffed on the
#: TaskResult.identity() contract (small workloads keep this fast).
EVAL_CELLS = (
    TaskSpec(tool="prof", workload="fib", wl_args=("10",)),
    TaskSpec(tool="branch", workload="fib", wl_args=("10",), opt="O2"),
)


def _reference_fingerprint(exe: bytes, max_insts: int) -> dict:
    """Cold in-process observables for one corpus executable."""
    from ..eval.errors import EvalTimeout
    from ..machine.cpu import MachineError
    from ..objfile.module import Module, ObjError
    try:
        res = run_uninstrumented(Module.from_bytes(exe),
                                 max_insts=max_insts)
    except EvalTimeout as exc:
        return {"timeout": True, "message": str(exc)}
    except (MachineError, ObjError) as exc:
        return {"fault": str(exc)}
    return {
        "timeout": False,
        "status": res.status,
        "stdout": base64.b64encode(res.stdout).decode(),
        "stderr": base64.b64encode(res.stderr).decode(),
        "files": {k: base64.b64encode(v).decode()
                  for k, v in sorted(res.files.items())},
        "cycles": res.cycles,
        "insts": res.inst_count,
    }


def _served_fingerprint(client: ServeClient, exe: bytes,
                        max_insts: int) -> dict:
    """The same observables fetched through the daemon."""
    try:
        reply = client.run_exe(exe, max_insts=max_insts)
    except ServeError as exc:
        if exc.kind == "machine-error":
            return {"fault": str(exc)}
        raise
    if reply.timeout:
        return {"timeout": True, "message": reply.message}
    return {
        "timeout": False,
        "status": reply.status,
        "stdout": base64.b64encode(reply.stdout).decode(),
        "stderr": base64.b64encode(reply.stderr).decode(),
        "files": {k: base64.b64encode(v).decode()
                  for k, v in sorted((reply.files or {}).items())},
        "cycles": reply.cycles,
        "insts": reply.insts,
    }


def _check_metrics_op(client: ServeClient) -> list[dict]:
    """The ``metrics`` op must emit parseable Prometheus text covering
    the core serving signals."""
    from ..obs.metrics import parse_text
    reply = client.metrics()
    try:
        families = parse_text(reply["text"])
    except ValueError as exc:
        return [{"error": f"metrics exposition unparseable: {exc}"}]
    missing = [name for name in
               ("wrl_requests_total", "wrl_request_latency_ms",
                "wrl_queue_depth", "wrl_dedup_hits_total",
                "wrl_tenant_cache_bytes")
               if name not in families]
    if missing:
        return [{"error": f"metrics exposition missing {missing}"}]
    return []


def _wait_ready(client: ServeClient, proc, deadline: float) -> None:
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"daemon exited early with status {proc.returncode}")
        try:
            client.ping()
            return
        except ServeError:
            time.sleep(0.05)
    raise RuntimeError("daemon did not become ready in time")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="wrl-check-serve",
        description="byte-identity replay of the corpus through a "
                    "live wrl-serve daemon")
    ap.add_argument("--corpus", default=str(DEFAULT_CORPUS),
                    help="directory of .mlc corpus programs")
    ap.add_argument("--limit", type=int, default=10,
                    help="corpus programs to replay (default 10)")
    ap.add_argument("--dup", type=int, default=3,
                    help="concurrent duplicate clients per program "
                         "(default 3; duplicates must dedup)")
    ap.add_argument("--jobs", type=int, default=2,
                    help="daemon worker processes (default 2)")
    ap.add_argument("--max-insts", type=int, default=80_000_000)
    ap.add_argument("--min-dedup-rate", type=float, default=0.34,
                    help="required dedup hit rate over eval+run "
                         "requests (default 0.34)")
    ap.add_argument("--artifacts", default="serve-artifacts",
                    help="directory for the daemon trace + failure "
                         "report when the check fails")
    args = ap.parse_args(argv)

    paths = sorted(Path(args.corpus).glob("*.mlc"))[:args.limit]
    if not paths:
        print(f"check-serve: no .mlc files under {args.corpus}",
              file=sys.stderr)
        return 2

    tmp = Path(tempfile.mkdtemp(prefix="wrl-check-serve-"))
    sock = tmp / "serve.sock"
    trace = tmp / "serve-trace.jsonl"
    failures: list[dict] = []

    print(f"check-serve: compiling {len(paths)} corpus program(s)",
          flush=True)
    exes = {}
    for path in paths:
        exes[path.name] = build_executable(
            [path.read_text()], name=path.stem).to_bytes()

    refs = {name: _reference_fingerprint(exe, args.max_insts)
            for name, exe in exes.items()}
    eval_refs = [run_with_retries(spec, None, 1)
                 for spec in EVAL_CELLS]

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--socket", str(sock),
         "--jobs", str(args.jobs), "--trace", str(trace),
         "--cache-dir", str(tmp / "cache")],
        env=None, cwd=str(Path.cwd()))
    client = ServeClient(sock, timeout=600.0)
    stats = None
    try:
        _wait_ready(client, proc, time.monotonic() + 60.0)
        print(f"check-serve: daemon up on {sock}; replaying with "
              f"{args.dup}x duplication", flush=True)

        jobs = [(name, exes[name]) for name in exes
                for _ in range(args.dup)]
        with ThreadPoolExecutor(max_workers=min(16, len(jobs))) as tp:
            futs = [(name, tp.submit(_served_fingerprint, client, exe,
                                     args.max_insts))
                    for name, exe in jobs]
            for name, fut in futs:
                try:
                    got = fut.result()
                except Exception as exc:             # noqa: BLE001
                    failures.append({"program": name,
                                     "error": f"{type(exc).__name__}: "
                                              f"{exc}"})
                    continue
                want = refs[name]
                if got != want:
                    failures.append({"program": name, "want": want,
                                     "got": got})

        for spec, ref in zip(EVAL_CELLS, eval_refs):
            record = client.eval_task(spec, tenant="check")
            record.pop("trace", None)
            served = TaskResult(**record)
            if served.identity() != ref.identity():
                failures.append({
                    "cell": spec.task_id,
                    "want": list(ref.identity()),
                    "got": list(served.identity()),
                })
            if (served.attempts, served.quarantined) \
                    != (ref.attempts, ref.quarantined):
                failures.append({
                    "cell": spec.task_id,
                    "error": "retry/quarantine mismatch",
                    "want": [ref.attempts, ref.quarantined],
                    "got": [served.attempts, served.quarantined],
                })

        failures.extend(_check_metrics_op(client))

        stats = client.stats()
        rate = stats["dedup_rate"]
        if rate < args.min_dedup_rate:
            failures.append({
                "error": f"dedup rate {rate} below floor "
                         f"{args.min_dedup_rate}",
                "stats": stats})
        print(f"check-serve: {len(jobs)} run + {len(EVAL_CELLS)} eval "
              f"requests (+metrics), dedup rate {rate}, "
              f"p99 latency {stats['latency_ms']['p99']}ms", flush=True)
    finally:
        try:
            client.shutdown()
        except ServeError:
            proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    if sock.exists():
        failures.append({"error": f"stale socket left at {sock}"})

    if failures:
        art = Path(args.artifacts)
        art.mkdir(parents=True, exist_ok=True)
        (art / "failures.json").write_text(
            json.dumps({"failures": failures, "stats": stats},
                       indent=2, default=str) + "\n")
        if trace.exists():
            shutil.copy(trace, art / "serve-trace.jsonl")
        print(f"check-serve: FAIL — {len(failures)} mismatch(es); "
              f"artifacts in {art}/", file=sys.stderr)
        for failure in failures[:5]:
            print(f"  - {json.dumps(failure, default=str)[:200]}",
                  file=sys.stderr)
        return 1

    shutil.rmtree(tmp, ignore_errors=True)
    print(f"check-serve: OK — {len(paths)} program(s) x{args.dup} "
          f"byte-identical through the daemon", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
