"""Instrumentation-as-a-service: the ``wrl-serve`` daemon and client.

A persistent asyncio daemon fronting the warm worker pool and the
content-addressed artifact cache — request dedup, dispatch on admission
(one pool task per request), per-tenant cache quotas, admission
control, and streamed heartbeats over one newline-JSON unix-socket
protocol.  ``wrl-run``/``wrl-eval`` become
thin clients via ``--server`` / ``WRL_SERVER`` with byte-identical
artifacts versus their cold-process paths.
"""

from .client import RunReply, ServeClient
from .daemon import Daemon, DaemonThread, main
from .protocol import (ENV_SERVER, ENV_TENANT, SERVE_SCHEMA,
                       ProtocolError, ServeError)

__all__ = [
    "Daemon", "DaemonThread", "ServeClient", "RunReply", "ServeError",
    "ProtocolError", "SERVE_SCHEMA", "ENV_SERVER", "ENV_TENANT", "main",
]
