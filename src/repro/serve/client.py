"""Synchronous thin client for the ``wrl-serve`` daemon.

``wrl-run --server`` and ``wrl-eval --server`` are this class plus
argument plumbing: open a unix socket, send one JSON request line, read
heartbeat frames until the terminal frame, return the payload.  Error
frames surface as :class:`~repro.serve.protocol.ServeError` carrying the
structured kind (``overloaded``, ``machine-error``, ...), so callers can
map them onto the same exit codes the cold-process CLIs use.

The client is deliberately stateless — one socket per request, safe to
share across threads (``run_matrix_via_server`` drives one instance from
a thread pool).
"""

from __future__ import annotations

import base64
import socket
import uuid
from dataclasses import dataclass

from ..obs import TRACE
from .protocol import (DEFAULT_SOCKET_NAME, ServeError, decode_frame,
                       encode_frame, server_path_from_env, spec_to_wire)


@dataclass
class RunReply:
    """Decoded terminal payload of a ``run`` op."""

    timeout: bool
    message: str = ""
    status: str = ""
    stdout: bytes = b""
    stderr: bytes = b""
    files: dict[str, bytes] | None = None
    cycles: int = 0
    insts: int = 0


class ServeClient:
    """Blocking client; every method is one request/response exchange."""

    def __init__(self, socket_path=None, *, timeout: float = 600.0):
        path = socket_path or server_path_from_env() \
            or DEFAULT_SOCKET_NAME
        self.socket_path = str(path)
        self.timeout = timeout

    # ---- transport ---------------------------------------------------------

    def _roundtrip(self, request: dict, on_heartbeat=None,
                   trace_id: str | None = None) -> dict:
        request.setdefault("id", uuid.uuid4().hex[:12])
        if trace_id is not None:
            request["trace_id"] = trace_id
        # The client half of the request timeline: one span covering
        # connect -> terminal frame, under the same trace id the daemon
        # and workers stamp their spans with.  Free when tracing is off
        # (the span call returns the shared null span).
        with TRACE.span("serve.client", "serve", op=request.get("op"),
                        request_id=request["id"]) as sp:
            if trace_id is not None:
                sp.add(trace_id=trace_id)
            return self._exchange(request, on_heartbeat)

    def _exchange(self, request: dict, on_heartbeat=None) -> dict:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            try:
                sock.connect(self.socket_path)
            except OSError as exc:
                raise ServeError(
                    "internal",
                    f"cannot connect to wrl-serve at "
                    f"{self.socket_path}: {exc}") from exc
            sock.sendall(encode_frame(request))
            with sock.makefile("rb") as stream:
                for line in stream:
                    frame = decode_frame(line)
                    kind = frame.get("type")
                    if kind == "span":
                        if on_heartbeat is not None:
                            on_heartbeat(frame)
                        continue
                    if kind == "error":
                        err = frame.get("error") or {}
                        raise ServeError(
                            err.get("kind", "internal"),
                            err.get("message", "unknown daemon error"))
                    return frame
        except socket.timeout as exc:
            raise ServeError(
                "internal",
                f"timed out after {self.timeout}s waiting on "
                f"{self.socket_path}") from exc
        finally:
            sock.close()
        raise ServeError("internal",
                         "daemon closed the connection without a "
                         "terminal frame")

    # ---- ops ---------------------------------------------------------------

    def ping(self) -> dict:
        return self._roundtrip({"op": "ping"})

    def stats(self) -> dict:
        return self._roundtrip({"op": "stats"})["stats"]

    def metrics(self) -> dict:
        """The daemon's metrics exposition: ``{"text": <Prometheus
        text>, "metrics": <JSON doc>, "enabled": bool}``."""
        frame = self._roundtrip({"op": "metrics"})
        return {"text": frame.get("text", ""),
                "metrics": frame.get("metrics", {}),
                "enabled": frame.get("enabled", False)}

    def shutdown(self) -> dict:
        return self._roundtrip({"op": "shutdown"})

    def eval_task(self, spec, *, tenant: str | None = None,
                  retries: int = 1, on_heartbeat=None,
                  trace_id: str | None = None) -> dict:
        """Evaluate one matrix cell; returns the TaskResult record as a
        plain dict (the daemon strips the trace)."""
        request = {"op": "eval", "spec": spec_to_wire(spec),
                   "retries": retries}
        if tenant is not None:
            request["tenant"] = tenant
        frame = self._roundtrip(request, on_heartbeat, trace_id)
        record = frame.get("record")
        if not isinstance(record, dict):
            raise ServeError("internal",
                             "result frame carried no record")
        return record

    def run_exe(self, exe: bytes, *, args=(), stdin: bytes = b"",
                max_insts: int = 500_000_000, tenant: str | None = None,
                on_heartbeat=None, trace_id: str | None = None) -> RunReply:
        """Run an executable uninstrumented — the wrl-run hot path."""
        request = {"op": "run",
                   "exe": base64.b64encode(exe).decode(),
                   "args": list(args), "max_insts": max_insts}
        if stdin:
            request["stdin"] = base64.b64encode(stdin).decode()
        if tenant is not None:
            request["tenant"] = tenant
        frame = self._roundtrip(request, on_heartbeat, trace_id)
        payload = frame.get("run")
        if not isinstance(payload, dict):
            raise ServeError("internal",
                             "result frame carried no run payload")
        if payload.get("timeout"):
            return RunReply(timeout=True,
                            message=payload.get("message", ""))
        return RunReply(
            timeout=False,
            status=payload.get("status", ""),
            stdout=base64.b64decode(payload.get("stdout", "")),
            stderr=base64.b64decode(payload.get("stderr", "")),
            files={name: base64.b64decode(data)
                   for name, data in sorted(
                       (payload.get("files") or {}).items())},
            cycles=int(payload.get("cycles", 0)),
            insts=int(payload.get("insts", 0)))
