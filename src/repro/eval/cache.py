"""Content-addressed on-disk store for compiled evaluation artifacts.

Compiling a workload, an analysis unit, or an instrumented executable is
pure: the output is a function of the source text, the build flags and
the pipeline that compiles them.  This module keys each artifact by a
SHA-256 over those inputs and keeps the resulting blobs under
``.repro-cache/`` so repeat bench/eval runs — including runs in fresh
worker processes — skip recompilation entirely.  :func:`fetch_or_build`
is the one path every kind of artifact takes through a store.

Layout::

    <root>/objects/<k[:2]>/<k>     # k = 64-hex content key
                                   # blob = sha256(payload) || payload

* The key hashes the *inputs* (source, flags, and the schema tag,
  which digests the package's own source: editing any stage of the
  pipeline changes every key); the leading digest hashes the
  *payload*, so a corrupted or truncated blob is detected on read,
  deleted, and treated as a miss — callers recompile, they never crash
  on bad cache bytes.
* Writes are atomic (temp file + ``os.replace``), so concurrent workers
  racing on the same key at worst both compile; the store never holds a
  half-written blob.
* Eviction is LRU past ``cap`` entries — and, when a byte quota is set
  (``max_bytes``), past that many payload bytes on disk: the serve
  daemon layers per-tenant namespaces on this, giving every tenant its
  own rooted store whose eviction can only ever touch that tenant's
  blobs.  The default entry cap is 512.  Recency is tracked by stamping
  blobs with explicit, strictly increasing nanosecond mtimes
  (``os.utime(path, ns=...)``) on every store and hit: filesystem
  timestamp granularity can be as coarse as one second, and letting
  hits tie would make eviction pick among hot blobs effectively
  arbitrarily.  Ordering falls back to the blob name only for stamps
  not issued by this process (e.g. a pre-existing tree).

Resolution order for the default store: disabled when ``WRL_CACHE`` is
``0``/``off``/``false``; rooted at ``WRL_CACHE_DIR`` when set; otherwise
``.repro-cache/`` under the current working directory.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import struct
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from ..objfile.module import Module, ObjError
from ..obs import TRACE

DEFAULT_DIR_NAME = ".repro-cache"
DEFAULT_CAP = 512

ENV_DIR = "WRL_CACHE_DIR"
ENV_TOGGLE = "WRL_CACHE"

_DIGEST_LEN = 32

#: The package's source: Python modules plus the MLC and assembly
#: sources it compiles (runtime, tools, workloads).  Never bytecode.
_PIPELINE_SUFFIXES = (".py", ".mlc", ".s")


class CacheFormatError(Exception):
    """A cached payload did not unpack as the expected artifact."""


@functools.cache
def cache_schema() -> str:
    """The tag every key and instrumented payload carries.

    It digests every source file of the package, so a change to any
    stage of the pipeline (compiler, linker, ATOM, tools, workloads)
    keys every artifact afresh instead of serving ones an older
    pipeline built.  Computed once per process, on first use.
    """
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for rel in sorted(path.relative_to(root).as_posix()
                      for path in root.rglob("*")
                      if path.suffix in _PIPELINE_SUFFIXES):
        data = (root / rel).read_bytes()
        digest.update(struct.pack(">QQ", len(rel), len(data)))
        digest.update(rel.encode() + data)
    return f"wrl-cache/v1/{digest.hexdigest()}"


def cache_enabled() -> bool:
    """False when ``WRL_CACHE`` opts out of the on-disk store."""
    return os.environ.get(ENV_TOGGLE, "1").lower() not in (
        "0", "off", "false", "no")


def default_cache_dir() -> Path:
    """``WRL_CACHE_DIR`` when set, else ``.repro-cache/`` under cwd."""
    override = os.environ.get(ENV_DIR)
    return Path(override) if override else Path.cwd() / DEFAULT_DIR_NAME


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    evicted: int = 0


class ArtifactCache:
    """One content-addressed blob store rooted at a directory."""

    def __init__(self, root: Path | str | None = None,
                 cap: int = DEFAULT_CAP,
                 max_bytes: int | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.cap = cap
        #: Optional byte quota over the blobs on disk (None = entry cap
        #: only).  Eviction keeps the store under *both* limits.
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        #: Cached blob count so a warm-cache ``put`` does O(1) work
        #: instead of re-listing ``objects/``; None means "recount on
        #: next use" (fresh store, or invalidated by clear/corruption —
        #: moments when our view of the tree may have drifted from disk).
        self._nblobs: int | None = None
        #: Cached byte total, maintained the same way (only consulted
        #: when a byte quota is set).
        self._nbytes: int | None = None
        #: Last LRU stamp issued (ns).  Each touch takes
        #: max(now_ns, last + 1), so stamps are strictly increasing even
        #: when the clock is coarse or steps backwards.
        self._lru_clock = 0

    # ---- paths ------------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    def _path(self, key: str) -> Path:
        return self.objects_dir / key[:2] / key

    # ---- store API --------------------------------------------------------

    def get(self, key: str) -> bytes | None:
        """The payload for ``key``, or None on miss or corruption."""
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            TRACE.count("cache.misses")
            return None
        digest, payload = blob[:_DIGEST_LEN], blob[_DIGEST_LEN:]
        if len(blob) < _DIGEST_LEN or \
                hashlib.sha256(payload).digest() != digest:
            self.stats.corrupt += 1
            TRACE.count("cache.corrupt")
            self._nblobs = None
            self._nbytes = None
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        TRACE.count("cache.hits")
        self._touch(path)                        # refresh LRU position
        return payload

    def put(self, key: str, payload: bytes) -> None:
        """Store ``payload`` under ``key`` atomically, then evict LRU."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = hashlib.sha256(payload).digest() + payload
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
        existed = path.exists()
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        TRACE.count("cache.stores")
        self._touch(path)
        if not existed:
            if self._nblobs is not None:
                self._nblobs += 1
            if self._nbytes is not None:
                self._nbytes += len(blob)
        else:
            # Overwrite: the old size is unknown; recount lazily.
            self._nbytes = None
        self._evict()

    def note_corrupt(self) -> None:
        """Record an undecodable payload found by a caller: the blob
        passed the digest check but its contents did not unpack as the
        expected artifact.  Counted so these misses are visible in
        ``wrl-trace summary`` rather than silently recompiled around."""
        self.stats.corrupt += 1
        TRACE.count("cache.corrupt")
        self._nblobs = None
        self._nbytes = None

    def __len__(self) -> int:
        return sum(1 for _ in self._iter_blobs())

    def total_bytes(self) -> int:
        """Bytes of blob data on disk (stat walk; not the cached view)."""
        total = 0
        for path in self._iter_blobs():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def clear(self) -> None:
        """Delete every blob; a no-op on a never-populated root."""
        for path in list(self._iter_blobs()):
            try:
                path.unlink()
            except OSError:
                pass
        self._nblobs = None
        self._nbytes = None

    # ---- eviction ---------------------------------------------------------

    def _touch(self, path: Path) -> None:
        """Stamp ``path`` with the next strictly increasing LRU time.

        ``os.utime(path)`` alone is not enough: on filesystems with
        coarse (up to 1 s) timestamp granularity, blobs touched in the
        same tick tie and eviction order among them is arbitrary —
        evicting hot blobs.  Explicit ns stamps from a monotonically
        advanced clock make recency a total order.
        """
        self._lru_clock = t = max(time.time_ns(), self._lru_clock + 1)
        try:
            os.utime(path, ns=(t, t))
        except OSError:
            pass

    def _iter_blobs(self):
        # Tolerate a root that has never seen a put (or was removed from
        # under us): an empty iteration, not FileNotFoundError.
        try:
            buckets = list(self.objects_dir.iterdir())
        except OSError:
            return
        for bucket in buckets:
            if bucket.is_dir():
                for path in bucket.iterdir():
                    if not path.name.startswith("."):
                        yield path

    def _evict(self) -> None:
        # O(1) on the warm path: trust the cached count while it says we
        # are under cap, and only re-list ``objects/`` (re-establishing
        # the exact count) once it claims a limit is exceeded.
        if self._nblobs is None:
            self._nblobs = sum(1 for _ in self._iter_blobs())
        over_count = self._nblobs > self.cap
        over_bytes = False
        if self.max_bytes is not None:
            if self._nbytes is None:
                self._nbytes = self.total_bytes()
            over_bytes = self._nbytes > self.max_bytes
        if not over_count and not over_bytes:
            return
        def lru_key(entry):
            # ns-precision recency (matching _touch's stamps), with the
            # blob name as a deterministic tie-break for stamps this
            # process did not issue.
            path, _ = entry
            try:
                return (path.stat().st_mtime_ns, path.name)
            except OSError:
                return (0, path.name)
        blobs = []
        for path in self._iter_blobs():
            try:
                size = path.stat().st_size
            except OSError:
                size = 0
            blobs.append((path, size))
        self._nblobs = len(blobs)
        self._nbytes = sum(size for _, size in blobs)
        blobs.sort(key=lru_key)
        for path, size in blobs:
            if self._nblobs <= self.cap and (
                    self.max_bytes is None
                    or self._nbytes <= self.max_bytes):
                break
            try:
                path.unlink()
                self.stats.evicted += 1
                self._nblobs -= 1
                self._nbytes -= size
                TRACE.count("cache.evicted")
            except OSError:
                pass


#: Default stores memoized per resolved root, so counters accumulate
#: across calls within a process but tests get a fresh instance whenever
#: they repoint ``WRL_CACHE_DIR``.
_default_caches: dict[Path, ArtifactCache] = {}


def get_default_cache() -> ArtifactCache | None:
    """The process-default store, or None when caching is disabled."""
    if not cache_enabled():
        return None
    root = default_cache_dir()
    cache = _default_caches.get(root)
    if cache is None:
        cache = _default_caches[root] = ArtifactCache(root)
    return cache


# ---- fetch or build --------------------------------------------------------

#: Exceptions a *malformed byte stream* can legitimately raise while
#: decoding a cached artifact: truncated/garbled framing (struct.error),
#: bad WOF structure (ObjError), stale or unparsable payload framing
#: (CacheFormatError), and value/lookup failures from garbage contents
#: (ValueError, KeyError).  Anything else — TypeError, AttributeError,
#: NameError... — is a programming error in the decoder and must
#: propagate: swallowing it would launder a real bug into a permanent
#: cache miss that gets silently recompiled around forever.
DECODE_ERRORS = (struct.error, ObjError, CacheFormatError, ValueError,
                 KeyError)


def fetch_or_build(cache, key, decode, build, encode=bytes):
    """``(artifact, hit)``: the artifact stored under ``key``, or a new one.

    ``cache`` is the store: an :class:`ArtifactCache`, None for none, or
    :func:`get_default_cache` (the callers' default), looked up here.
    ``key`` is called only when there is a store; it returns the content
    key, or None for an artifact that cannot be keyed, which then skips
    the store.

    A stored payload goes through ``decode``.  One that raises one of
    :data:`DECODE_ERRORS` is counted corrupt once and rebuilt; any other
    exception is a decoder bug and propagates.  On a miss ``build()``
    makes the artifact, and ``encode(artifact)`` is stored only when
    there is a store to put it in.
    """
    store = cache() if callable(cache) else cache
    key = key() if store is not None else None
    if key is None:
        return build(), False
    payload = store.get(key)
    if payload is not None:
        try:
            return decode(payload), True
        except DECODE_ERRORS:
            store.note_corrupt()
    artifact = build()
    store.put(key, encode(artifact))
    return artifact, False


def module_payload(payload: bytes) -> bytes:
    """``payload`` itself, once it decodes as a WOF module: the decoder
    of the artifacts stored as bare modules (workloads, analysis
    units)."""
    Module.from_bytes(payload)
    return payload


# ---- content keys ---------------------------------------------------------

def content_key(kind: str, *parts: bytes | str | int | tuple) -> str:
    """SHA-256 over the schema tag, ``kind``, and length-framed parts.

    Length framing keeps distinct part sequences from colliding (e.g.
    ``("ab", "c")`` vs ``("a", "bc")``).
    """
    digest = hashlib.sha256()
    for piece in (cache_schema(), kind) + parts:
        if isinstance(piece, tuple):
            raw = json.dumps(piece, default=str).encode()
        elif isinstance(piece, (int, float)):
            raw = repr(piece).encode()
        elif isinstance(piece, str):
            raw = piece.encode()
        else:
            raw = piece
        digest.update(struct.pack(">Q", len(raw)))
        digest.update(raw)
    return digest.hexdigest()


def analysis_key(analysis_source: str) -> str:
    """Key for a compiled analysis unit."""
    return content_key("analysis", analysis_source)


def executable_key(sources: tuple[str, ...], name: str) -> str:
    """Key for a compiled+linked application executable."""
    return content_key("executable", name, *sources)


def instrument_key(app_bytes: bytes, analysis_source: str,
                   instrument_fingerprint: str, opt: str, heap_mode: str,
                   tool_args: tuple[str, ...]) -> str:
    """Key for an instrumented executable (module bytes + stats)."""
    return content_key("instrument", app_bytes, analysis_source,
                       instrument_fingerprint, opt, heap_mode, tool_args)


# ---- instrumented-executable payload framing ------------------------------

def pack_instrument(module_bytes: bytes, stats: dict) -> bytes:
    """``[u32 header len][header JSON][module bytes]``."""
    header = json.dumps({"schema": cache_schema(), "stats": stats},
                        sort_keys=True).encode()
    return struct.pack(">I", len(header)) + header + module_bytes


def unpack_instrument(payload: bytes) -> tuple[bytes, dict]:
    """Inverse of :func:`pack_instrument`; raises CacheFormatError."""
    try:
        (header_len,) = struct.unpack_from(">I", payload)
        header = json.loads(payload[4:4 + header_len])
        module_bytes = payload[4 + header_len:]
        if header.get("schema") != cache_schema():
            raise CacheFormatError(
                f"stale cache schema {header.get('schema')!r}")
        return module_bytes, header["stats"]
    except CacheFormatError:
        raise
    except Exception as exc:
        raise CacheFormatError(f"bad instrumented payload: {exc}") from exc
