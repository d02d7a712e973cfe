"""Applying tools to executables and running the results.

This is the glue the benchmarks and examples share: build (and cache)
each tool's analysis unit, instrument an application with it, and run
either version on the simulated machine collecting cycle counts.

Caching is two-layered.  The in-memory maps below memoize blobs within
one process; underneath them sits the content-addressed on-disk store
(:mod:`repro.eval.cache`), so a warm ``.repro-cache/`` lets repeat runs —
and fresh worker processes in the parallel pipeline — skip
``build_analysis_unit``/``instrument_executable`` entirely.  Pass
``cache=None`` to bypass the disk store for one call, or set
``WRL_CACHE=0`` to disable it process-wide.
"""

from __future__ import annotations

import inspect
import struct

from ..atom import OptLevel, instrument_executable
from ..atom.instrument import InstrumentResult, InstrumentStats
from ..machine import RunResult, run_module
from ..machine.cpu import BudgetExhausted
from ..mlc import build_analysis_unit
from ..objfile.module import Module, ObjError
from ..obs import TRACE
from ..tools import Tool
from .cache import (ArtifactCache, CacheFormatError, analysis_key,
                    get_default_cache, instrument_key, pack_instrument,
                    unpack_instrument)
from .errors import EvalTimeout

#: Compiled analysis units keyed by a content hash of the analysis
#: source.  Keying on the tool *name* served stale units whenever a
#: tool's source changed between calls (or two tools shared a name);
#: the content key makes the cache insensitive to naming entirely.
#: Evicted FIFO past the cap — insertion order is good enough here
#: since the working set is "every distinct tool in one process".
_analysis_cache: dict[str, bytes] = {}
_ANALYSIS_CACHE_CAP = 64

#: Actual compiler invocations this process has performed, by kind.
#: The parallel pipeline snapshots these around each task to report
#: cache effectiveness; tests assert warm-cache runs leave them flat.
COMPILE_COUNTS = {"analysis": 0, "instrument": 0}

#: Distinguishes "use the process default store" from an explicit
#: ``cache=None`` (disable) or ``cache=ArtifactCache(...)``.
_DEFAULT_CACHE = object()


def _resolve_cache(cache) -> ArtifactCache | None:
    if cache is _DEFAULT_CACHE:
        return get_default_cache()
    return cache


#: The request trace id the current task is executing under (serve
#: requests propagate theirs into the worker; local CLIs set it from
#: ``--trace-id``/``WRL_TRACE_ID``).  Every span recorded below tags
#: itself with it, so one merged trace file can be filtered down to a
#: single request's compile/instrument/interpret phases.
_TRACE_ID: str | None = None


def set_trace_id(trace_id: str | None) -> None:
    """Set (or clear, with None) the ambient trace id for this process."""
    global _TRACE_ID
    _TRACE_ID = trace_id


def current_trace_id() -> str | None:
    return _TRACE_ID


def _tag(sp) -> None:
    """Tag a live span with the ambient trace id, when one is set."""
    if _TRACE_ID is not None:
        sp.add(trace_id=_TRACE_ID)


def preload_process() -> None:
    """Pre-import the whole compile/run stack into this process.

    The serve daemon's warm worker pool runs this as the pool
    initializer: a cold Python worker pays several hundred milliseconds
    of imports (parser, codegen, interpreter, tool registry) on its
    first task, which would be charged to whichever unlucky request
    lands there.  After preload, per-task cost is pure work.
    """
    # The imports at the top of this module already pull in the atom
    # instrumenter, the OM passes, the MLC frontend, and the machine;
    # what remains lazy are the tool/workload registries and the
    # heavier leaf modules the first task would fault in.
    from .. import tools, workloads                       # noqa: F401
    from ..machine import loader                          # noqa: F401
    from ..mlc import codegen, parser                     # noqa: F401
    from ..obs import runtime                             # noqa: F401
    from ..tools import TOOL_NAMES, get_tool
    from ..workloads import load_source                   # noqa: F401
    for name in TOOL_NAMES:
        tool = get_tool(name)
        tool.analysis_source                              # noqa: B018


def analysis_unit_for(tool: Tool, *, cache=_DEFAULT_CACHE) -> Module:
    """Compile the tool's analysis routines into a linked unit (cached)."""
    return Module.from_bytes(_analysis_blob(tool, cache=cache))


def _analysis_blob(tool: Tool, *, cache=_DEFAULT_CACHE) -> bytes:
    """The serialized analysis unit of ``tool``, compiled on a miss."""
    key = analysis_key(tool.analysis_source)
    blob = _analysis_cache.get(key)
    if blob is None:
        disk = _resolve_cache(cache)
        if disk is not None:
            blob = disk.get(key)
            if blob is not None and _module_or_none(blob, disk) is None:
                blob = None                       # unreadable: recompile
        if blob is None:
            COMPILE_COUNTS["analysis"] += 1
            with TRACE.span("compile.analysis", "instrument",
                            tool=tool.name) as sp:
                _tag(sp)
                unit = build_analysis_unit([tool.analysis_source],
                                           name=f"{tool.name}-analysis")
            blob = unit.to_bytes()
            if disk is not None:
                disk.put(key, blob)
        while len(_analysis_cache) >= _ANALYSIS_CACHE_CAP:
            _analysis_cache.pop(next(iter(_analysis_cache)))
        _analysis_cache[key] = blob
    return blob


#: Exceptions a *malformed byte stream* can legitimately raise while
#: decoding a cached artifact: truncated/garbled framing (struct.error),
#: bad WOF structure (ObjError), stale or unparsable payload framing
#: (CacheFormatError), and value/lookup failures from garbage contents
#: (ValueError, KeyError).  Anything else — TypeError, AttributeError,
#: NameError... — is a programming error in the decoder and must
#: propagate: swallowing it would launder a real bug into a permanent
#: cache miss that gets silently recompiled around forever.
_DECODE_ERRORS = (struct.error, ObjError, CacheFormatError, ValueError,
                  KeyError)


def _module_or_none(blob: bytes,
                    cache: ArtifactCache | None = None) -> Module | None:
    try:
        return Module.from_bytes(blob)
    except _DECODE_ERRORS:
        if cache is not None:
            cache.note_corrupt()
        return None


def _instrument_fingerprint(tool: Tool) -> str | None:
    """Source text of the tool's instrumentation routine, or None when
    it cannot be recovered (interactively defined functions) — in which
    case the instrumented-executable cache is skipped for safety.

    A tool whose Instrument routine reads state outside the
    ``tool_args`` already in the cache key (e.g. taint's
    ``WRL_TAINT_SOURCES`` environment fallback) publishes that state
    via a ``cache_fingerprint_extra`` attribute; it is folded in here so
    a cached instrumented executable can never be served under inputs
    it was not built for."""
    try:
        text = inspect.getsource(tool.instrument)
    except (OSError, TypeError):
        return None
    extra = getattr(tool.instrument, "cache_fingerprint_extra", None)
    if extra is not None:
        text += f"\n# extra: {extra()}"
    return text


def apply_tool(app: Module, tool: Tool, *,
               opt: OptLevel = OptLevel.O1,
               heap_mode: str = "linked",
               tool_args: tuple[str, ...] = (),
               cache=_DEFAULT_CACHE) -> InstrumentResult:
    """Instrument ``app`` with ``tool`` (the paper's step 2).

    With a warm artifact cache the instrumented module and its stats are
    rehydrated from disk (``result.cached`` is True and ``result.plans``
    is None); otherwise the instrumenter runs and its output is stored.
    """
    with TRACE.span("apply_tool", "instrument", tool=tool.name,
                    opt=opt.name) as sp:
        _tag(sp)
        disk = _resolve_cache(cache)
        key = None
        if disk is not None:
            fingerprint = _instrument_fingerprint(tool)
            if fingerprint is not None:
                key = instrument_key(app.to_bytes(), tool.analysis_source,
                                     fingerprint, opt.name, heap_mode,
                                     tuple(tool_args))
                payload = disk.get(key)
                if payload is not None:
                    hit = _instrument_from_payload(payload, disk)
                    if hit is not None:
                        sp.add(cached=True)
                        return hit
        COMPILE_COUNTS["instrument"] += 1
        # The unit goes in serialized: instrument_executable decodes its
        # own copy, so the unit is decoded once per rewrite.
        result = instrument_executable(app, tool.instrument,
                                       _analysis_blob(tool, cache=cache),
                                       opt=opt, heap_mode=heap_mode,
                                       tool_args=tool_args)
        if key is not None:
            stats = {k: v for k, v in vars(result.stats).items()}
            disk.put(key, pack_instrument(result.module.to_bytes(), stats))
        sp.add(cached=False, points=result.stats.points,
               calls_added=result.stats.calls_added)
        return result


def _instrument_from_payload(payload: bytes,
                             cache: ArtifactCache | None = None,
                             ) -> InstrumentResult | None:
    try:
        module_bytes, stats = unpack_instrument(payload)
        module = Module.from_bytes(module_bytes)
    except _DECODE_ERRORS:
        # Malformed or stale payload: a counted miss, recompiled below.
        # Decoder bugs (TypeError & co.) propagate — see _DECODE_ERRORS.
        if cache is not None:
            cache.note_corrupt()
        return None
    return InstrumentResult(module=module,
                            stats=InstrumentStats(**stats),
                            plans=None, cached=True)


def _checked_run(module: Module, *, stage: str, args, stdin,
                 max_insts: int, sampler=None) -> RunResult:
    if not isinstance(max_insts, int) or max_insts <= 0:
        raise ValueError(
            f"max_insts must be a positive integer, got {max_insts!r}")
    try:
        with TRACE.span(f"interpret.{stage}", "interpret") as sp:
            _tag(sp)
            result = run_module(module, args=tuple(args), stdin=stdin,
                                max_insts=max_insts, sampler=sampler)
            sp.add(insts=result.inst_count, cycles=result.cycles,
                   status=result.status)
            return result
    except EvalTimeout:
        raise
    except BudgetExhausted as exc:
        raise EvalTimeout(stage, max_insts, exc.pc) from exc


# Both runners dispatch fused; ``run_module(fuse=False)`` is the
# per-instruction reference.  ``jit`` is accepted and ignored because
# perfbench/fig5.py passes ``jit=False`` (pinned by
# tests/eval/test_runner.py::test_runners_accept_and_ignore_jit).
def run_uninstrumented(app: Module, *, args=(), stdin=b"",
                       max_insts: int = 500_000_000,
                       jit: bool | None = None,
                       sampler=None) -> RunResult:
    return _checked_run(app, stage="base", args=args, stdin=stdin,
                        max_insts=max_insts, sampler=sampler)


def run_instrumented(result: InstrumentResult, *, args=(), stdin=b"",
                     max_insts: int = 2_000_000_000,
                     jit: bool | None = None,
                     sampler=None) -> RunResult:
    return _checked_run(result.module, stage="instrumented", args=args,
                        stdin=stdin, max_insts=max_insts, sampler=sampler)
