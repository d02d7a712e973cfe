"""Twenty synthetic workload programs standing in for the SPEC92 suite.

The paper instruments 20 SPEC92 programs; we cannot redistribute those, so
this package provides 20 deterministic MLC programs with the same *kinds*
of hot spots: memory-bound kernels, branch-heavy search, call-heavy
recursion, string processing, heap churn, and file I/O.  Each prints a
checksum (so pristine-behaviour comparisons are meaningful) and accepts an
optional scale argument.
"""

from __future__ import annotations

import importlib.resources as resources

from ..machine import RunResult, run_module
from ..mlc import build_executable
from ..objfile.module import Module

WORKLOAD_NAMES = (
    "compress", "eqntott", "espresso", "li", "sc",
    "cc1", "quick", "merge", "matrix", "sieve",
    "hashtab", "bfs", "nqueens", "crc", "strings",
    "life", "churn", "fileio", "fib", "bitops",
)

_exe_cache: dict[str, bytes] = {}

#: Distinguishes "use the process default store" from an explicit
#: ``cache=None`` (no disk store) or ``cache=ArtifactCache(...)``.
_DEFAULT_CACHE = object()


def load_source(name: str) -> str:
    """Read one workload's MLC source."""
    if name not in WORKLOAD_NAMES:
        raise KeyError(f"unknown workload {name!r}")
    return resources.files(__package__) \
        .joinpath(f"programs/{name}.mlc").read_text()


def build_workload(name: str, *, cache=_DEFAULT_CACHE) -> Module:
    """Compile and link one workload (cached).

    Two layers: an in-memory blob memo for this process, backed by the
    content-addressed on-disk artifact store so fresh processes (e.g.
    parallel eval workers) skip recompilation too.  Pass ``cache=None``
    to bypass the disk store for one call.
    """
    blob = _exe_cache.get(name)
    if blob is not None:
        return Module.from_bytes(blob)
    # Imported lazily: repro.eval pulls this module in at package
    # import time, so a top-level import would be circular.
    from ..eval.cache import executable_key, get_default_cache
    from ..eval.runner import _DECODE_ERRORS
    source = load_source(name)
    disk = get_default_cache() if cache is _DEFAULT_CACHE else cache
    key = executable_key((source,), name)
    module = None
    if disk is not None:
        blob = disk.get(key)
        if blob is not None:
            try:
                module = Module.from_bytes(blob)
            except _DECODE_ERRORS:
                # Unreadable blob: a counted miss, recompiled below.
                # Decoder bugs (TypeError & co.) propagate.
                disk.note_corrupt()
    if module is None:
        blob = build_executable([source], name=name).to_bytes()
        if disk is not None:
            disk.put(key, blob)
        module = Module.from_bytes(blob)
    _exe_cache[name] = blob
    return module


def run_workload(name: str, *, args=(), **kw) -> RunResult:
    return run_module(build_workload(name), args=tuple(args), **kw)


def all_workloads() -> list[str]:
    return list(WORKLOAD_NAMES)
