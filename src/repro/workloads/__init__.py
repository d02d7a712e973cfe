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

from ..eval.cache import (executable_key, fetch_or_build,
                          get_default_cache, module_payload)
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


def load_source(name: str) -> str:
    """Read one workload's MLC source."""
    if name not in WORKLOAD_NAMES:
        raise KeyError(f"unknown workload {name!r}")
    return resources.files(__package__) \
        .joinpath(f"programs/{name}.mlc").read_text()


def build_workload(name: str, *, cache=get_default_cache) -> Module:
    """Compile and link one workload (cached).

    Two layers: an in-memory blob memo for this process, backed by the
    content-addressed on-disk artifact store so fresh processes (e.g.
    parallel eval workers) skip recompilation too.  Pass ``cache=None``
    to bypass the disk store for one call.
    """
    blob = _exe_cache.get(name)
    if blob is None:
        source = load_source(name)
        blob, _ = fetch_or_build(
            cache, lambda: executable_key((source,), name), module_payload,
            lambda: build_executable([source], name=name).to_bytes())
        _exe_cache[name] = blob
    return Module.from_bytes(blob)


def run_workload(name: str, *, args=(), **kw) -> RunResult:
    return run_module(build_workload(name), args=tuple(args), **kw)


def all_workloads() -> list[str]:
    return list(WORKLOAD_NAMES)
