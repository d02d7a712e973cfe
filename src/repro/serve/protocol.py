"""Wire protocol for the instrumentation-as-a-service daemon.

Newline-delimited JSON over a unix-domain socket, one request per
connection (the HTTP/1.0 of instrumentation services — trivially
debuggable with ``socat`` and immune to head-of-line blocking between
requests, since concurrency comes from concurrent connections):

* The client sends exactly one request line and then only reads; the
  daemon detects EOF on the request side as "client gone" and cancels
  that subscription without touching deduped siblings.
* The daemon streams zero or more *heartbeat* frames — byte-compatible
  with the ``WRL_HEARTBEAT`` JSONL rows (``type=span``/``name=heartbeat``)
  so they parse with :func:`repro.obs.read_jsonl` and merge into tracer
  snapshots — followed by exactly one terminal frame (``result``,
  ``stats``, ``pong``, ``ok``, or ``error``).

Requests::

    {"op": "eval", "id": "...", "tenant": "t", "retries": 1,
     "spec": {"tool": "prof", "workload": "fib", ...}}
    {"op": "run", "id": "...", "tenant": "t", "exe": "<base64 WOF>",
     "args": [...], "stdin": "<base64>", "max_insts": N}
    {"op": "stats"} | {"op": "metrics"} | {"op": "ping"}
    {"op": "shutdown"}

Unknown top-level request keys are ignored, so a client may still send
``"fuse"`` or ``"jit"``: dispatch is the machine's choice, and requests
that differ only in such a key are one request.

Errors are always structured: ``{"type": "error", "error": {"kind":
..., "message": ...}}`` with ``kind`` drawn from :data:`ERROR_KINDS` —
``overloaded`` is the admission-control shed signal clients can back
off on, never an exception stack.

**Trace context.**  Requests may carry an optional ``trace_id``
(client-minted, validated by :func:`validate_trace_id`); the daemon
tags every span and heartbeat for that request with it, threads it into
the worker's trace capture, and links deduplicated followers to the
executing request's id.  A request without one gets a server-minted
id.  Trace ids ride only on heartbeat frames and in the trace itself,
never in terminal frames, so a request's terminal frame is the same
bytes with or without one.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import os
import re
import time

from ..atom import HEAP_MODES, OptLevel
from ..tools import TOOL_NAMES
from ..workloads import WORKLOAD_NAMES
from .. import __version__ as _REPRO_VERSION
from ..eval.parallel import TaskSpec

SERVE_SCHEMA = f"wrl-serve/v2/{_REPRO_VERSION}"

ENV_SERVER = "WRL_SERVER"
ENV_TENANT = "WRL_TENANT"

DEFAULT_SOCKET_NAME = ".repro-serve.sock"

#: Hard ceiling on one request line; anything longer is rejected with a
#: structured ``oversized`` error before parsing (the daemon's stream
#: limit guarantees the bytes are never buffered past ~2x this).
MAX_REQUEST_BYTES = 4 * 1024 * 1024

OPS = ("eval", "run", "stats", "metrics", "ping", "shutdown")

ERROR_KINDS = ("bad-request", "oversized", "unknown-op", "overloaded",
               "worker-died", "machine-error", "internal", "shutting-down")

_TENANT_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")
_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


class ProtocolError(Exception):
    """A request the daemon rejects; carries the structured kind."""

    def __init__(self, kind: str, message: str):
        assert kind in ERROR_KINDS
        super().__init__(message)
        self.kind = kind


class ServeError(Exception):
    """Client-side surface of a structured daemon error frame."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


# ---- framing ---------------------------------------------------------------

def encode_frame(obj: dict) -> bytes:
    """One compact JSON object + newline (the only wire unit)."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode() \
        + b"\n"


def decode_frame(line: bytes) -> dict:
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError("bad-request", f"unparsable frame: {exc}") \
            from exc
    if not isinstance(obj, dict):
        raise ProtocolError("bad-request", "frame is not a JSON object")
    return obj


def error_frame(req_id, kind: str, message: str) -> dict:
    return {"type": "error", "id": req_id,
            "error": {"kind": kind, "message": message}}


def heartbeat_frame(task: str, phase: str, **fields) -> dict:
    """A daemon progress frame in the ``WRL_HEARTBEAT`` JSONL row shape
    (``repro.obs.read_jsonl`` parses a stream of these directly)."""
    now = time.monotonic_ns()
    return {"type": "span", "name": "heartbeat", "cat": "serve",
            "ts_ns": now, "dur_ns": 0, "pid": os.getpid(), "tid": 0,
            "args": {"task": task, "phase": phase, **fields}}


TERMINAL_TYPES = ("result", "stats", "metrics", "pong", "ok", "error")


# ---- request validation ----------------------------------------------------

def _need(cond, message: str) -> None:
    if not cond:
        raise ProtocolError("bad-request", message)


def validate_tenant(tenant) -> str:
    if tenant is None:
        return "default"
    _need(isinstance(tenant, str) and _TENANT_RE.match(tenant),
          f"bad tenant {tenant!r} (want [A-Za-z0-9._-]{{1,64}})")
    return tenant


def validate_trace_id(trace_id) -> str | None:
    """A client-supplied trace id, or None when absent.

    Absence is not an error — the daemon mints a server-side id — but a
    present-and-malformed id is rejected rather than silently dropped,
    so a typo'd ``--trace-id`` fails loudly instead of producing an
    uncorrelatable trace.
    """
    if trace_id is None:
        return None
    _need(isinstance(trace_id, str) and _TRACE_ID_RE.match(trace_id),
          f"bad trace_id {trace_id!r} (want [A-Za-z0-9._-]{{1,64}})")
    return trace_id


def _b64_field(obj: dict, key: str, default: bytes = b"") -> bytes:
    raw = obj.get(key)
    if raw is None:
        return default
    _need(isinstance(raw, str), f"{key} must be base64 text")
    try:
        return base64.b64decode(raw, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise ProtocolError("bad-request",
                            f"{key} is not valid base64: {exc}") from exc


def _str_tuple(obj: dict, key: str) -> tuple[str, ...]:
    raw = obj.get(key, [])
    _need(isinstance(raw, list) and all(isinstance(x, str) for x in raw),
          f"{key} must be a list of strings")
    return tuple(raw)


def _bounded_int(obj: dict, key: str, default: int, lo: int = 1) -> int:
    raw = obj.get(key, default)
    _need(isinstance(raw, int) and not isinstance(raw, bool)
          and raw >= lo, f"{key} must be an integer >= {lo}")
    return raw


def _bool_field(obj: dict, key: str, default: bool) -> bool:
    raw = obj.get(key, default)
    _need(isinstance(raw, bool), f"{key} must be a boolean")
    return raw


def options_from_wire(obj: dict) -> int:
    """The ``retries`` of an eval or run request."""
    return _bounded_int(obj, "retries", 1, lo=0)


def run_from_wire(obj: dict) -> tuple[bytes, tuple[str, ...], bytes, int]:
    """Validate and decode a run request: ``(exe, args, stdin,
    max_insts)``."""
    exe = _b64_field(obj, "exe")
    _need(exe, "run op needs base64 exe bytes")
    return (exe, _str_tuple(obj, "args"), _b64_field(obj, "stdin"),
            _bounded_int(obj, "max_insts", 2_000_000_000))


def spec_from_wire(obj) -> TaskSpec:
    """Validate and build the TaskSpec of an eval request."""
    _need(isinstance(obj, dict), "spec must be an object")
    unknown = set(obj) - {"tool", "workload", "opt", "heap_mode",
                          "tool_args", "wl_args", "stdin", "base_max_insts",
                          "max_insts", "warmup"}
    _need(not unknown, f"unknown spec fields {sorted(unknown)}")
    tool = obj.get("tool")
    _need(tool in TOOL_NAMES, f"unknown tool {tool!r}")
    workload = obj.get("workload")
    _need(workload in WORKLOAD_NAMES, f"unknown workload {workload!r}")
    opt = obj.get("opt", "O1")
    _need(opt in tuple(level.name for level in OptLevel),
          f"unknown opt {opt!r}")
    heap_mode = obj.get("heap_mode", "linked")
    _need(heap_mode in HEAP_MODES, f"unknown heap_mode {heap_mode!r}")
    return TaskSpec(
        tool=tool, workload=workload, opt=opt, heap_mode=heap_mode,
        tool_args=_str_tuple(obj, "tool_args"),
        wl_args=_str_tuple(obj, "wl_args"),
        stdin=_b64_field(obj, "stdin"),
        base_max_insts=_bounded_int(obj, "base_max_insts", 500_000_000),
        max_insts=_bounded_int(obj, "max_insts", 2_000_000_000),
        warmup=_bool_field(obj, "warmup", False))


def spec_to_wire(spec: TaskSpec) -> dict:
    """Client-side inverse of :func:`spec_from_wire`."""
    wire = {
        "tool": spec.tool, "workload": spec.workload, "opt": spec.opt,
        "heap_mode": spec.heap_mode,
        "base_max_insts": spec.base_max_insts,
        "max_insts": spec.max_insts, "warmup": spec.warmup,
    }
    if spec.tool_args:
        wire["tool_args"] = list(spec.tool_args)
    if spec.wl_args:
        wire["wl_args"] = list(spec.wl_args)
    if spec.stdin:
        wire["stdin"] = base64.b64encode(spec.stdin).decode()
    return wire


# ---- dedup keys ------------------------------------------------------------

def _canon(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, separators=(",", ":"), sort_keys=True).encode()
    ).hexdigest()


def eval_dedup_key(spec: TaskSpec, tenant: str, retries: int) -> str:
    """Identity of an eval request: everything that can change the
    record (including the tenant, so coalesced work is charged to one
    cache namespace, never smeared across quotas)."""
    wire = spec_to_wire(spec)
    if spec.stdin:
        wire["stdin"] = hashlib.sha256(spec.stdin).hexdigest()
    return _canon({"op": "eval", "tenant": tenant, "retries": retries,
                   "spec": wire})


def run_dedup_key(exe: bytes, args: tuple[str, ...], stdin: bytes,
                  max_insts: int, tenant: str) -> str:
    """Identity of a run request: the exe-hash, not the exe bytes."""
    return _canon({"op": "run", "tenant": tenant,
                   "exe": hashlib.sha256(exe).hexdigest(),
                   "args": list(args),
                   "stdin": hashlib.sha256(stdin).hexdigest(),
                   "max_insts": max_insts})


def server_path_from_env() -> str | None:
    """The ``WRL_SERVER`` socket path, or None when not configured."""
    return os.environ.get(ENV_SERVER) or None
