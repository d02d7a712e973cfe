"""Property and failure-injection tests for the artifact cache.

The store's contract: identical inputs hit, any perturbation of any key
ingredient misses, and a corrupted on-disk blob is detected, discarded,
and transparently recompiled — never crashes, never serves bad bytes.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import workloads
from repro.eval import cache as cache_mod
from repro.eval import runner
from repro.eval.cache import (ArtifactCache, CacheFormatError,
                              analysis_key, cache_enabled, content_key,
                              default_cache_dir, executable_key,
                              get_default_cache, instrument_key,
                              pack_instrument, unpack_instrument)
from repro.objfile.module import Module
from repro.tools import get_tool
from repro.workloads import build_workload, load_source


# ---- key properties -------------------------------------------------------

@given(st.text(max_size=200), st.text(max_size=200))
@settings(max_examples=50, deadline=None)
def test_distinct_sources_get_distinct_keys(a, b):
    if a == b:
        assert analysis_key(a) == analysis_key(b)
    else:
        assert analysis_key(a) != analysis_key(b)


@given(st.lists(st.text(min_size=1, max_size=20), min_size=2, max_size=5))
@settings(max_examples=50, deadline=None)
def test_length_framing_prevents_concatenation_collisions(parts):
    joined = content_key("k", "".join(parts))
    split = content_key("k", *parts)
    if len(parts) > 1:
        assert joined != split
    assert content_key("k", *parts) == content_key("k", *parts)


def test_kind_is_part_of_the_key():
    assert analysis_key("src") != executable_key(("src",), "src")
    assert content_key("a", "x") != content_key("b", "x")


_PROBE = """\
import json
from repro.eval import apply_tool
from repro.tools import get_tool
from repro.workloads import build_workload
result = apply_tool(build_workload("fib"), get_tool("prof"))
print(json.dumps([result.cached, sorted(result.module.meta)]))
"""


def test_keys_cover_the_pipeline_source(tmp_path):
    """Two trees that differ in one line of ATOM share a store: the
    changed tree must build its own rewrite, not get the other tree's
    (the keys once mixed in only the package version)."""
    src = Path(repro.__file__).resolve().parents[1]
    changed = tmp_path / "src"
    shutil.copytree(src / "repro", changed / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    instrument = changed / "repro" / "atom" / "instrument.py"
    anchor = '    final.meta["atom:opt_level"] = int(opt)\n'
    text = instrument.read_text()
    assert anchor in text
    instrument.write_text(
        text.replace(anchor, anchor + '    final.meta["atom:probe"] = 1\n'))
    env = {k: v for k, v in os.environ.items() if not k.startswith("WRL_")}
    env["WRL_CACHE_DIR"] = str(tmp_path / "store")

    def rewrite(tree):
        out = subprocess.run([sys.executable, "-c", _PROBE],
                             env={**env, "PYTHONPATH": str(tree)},
                             capture_output=True, text=True, check=True,
                             timeout=300)
        return json.loads(out.stdout.splitlines()[-1])

    cached, meta = rewrite(src)
    assert not cached and "atom:probe" not in meta
    cached, meta = rewrite(changed)
    assert not cached and "atom:probe" in meta


@given(st.sampled_from(["app", "analysis", "fingerprint", "opt",
                        "heap", "args"]))
@settings(max_examples=24, deadline=None)
def test_any_instrument_ingredient_perturbs_the_key(field):
    base = dict(app_bytes=b"APP", analysis_source="ANAL",
                instrument_fingerprint="FP", opt="O1",
                heap_mode="linked", tool_args=("x",))
    tweaked = dict(base)
    tweak = {"app": ("app_bytes", b"APP2"),
             "analysis": ("analysis_source", "ANAL2"),
             "fingerprint": ("instrument_fingerprint", "FP2"),
             "opt": ("opt", "O3"),
             "heap": ("heap_mode", "partitioned"),
             "args": ("tool_args", ("x", "y"))}
    key, value = tweak[field]
    tweaked[key] = value
    assert instrument_key(**base) == instrument_key(**base)
    assert instrument_key(**base) != instrument_key(**tweaked)


# ---- store behaviour ------------------------------------------------------

@given(st.binary(max_size=4096))
@settings(max_examples=25, deadline=None)
def test_roundtrip_any_payload(tmp_path_factory, payload):
    cache = ArtifactCache(tmp_path_factory.mktemp("c"))
    key = content_key("blob", payload)
    assert cache.get(key) is None
    cache.put(key, payload)
    assert cache.get(key) == payload
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_corrupted_blob_is_detected_and_dropped(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = analysis_key("some source")
    cache.put(key, b"payload bytes")
    path = cache._path(key)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF                      # flip one payload byte
    path.write_bytes(bytes(blob))
    assert cache.get(key) is None
    assert cache.stats.corrupt == 1
    assert not path.exists()              # bad blob evicted on sight


def test_truncated_blob_is_a_miss(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = analysis_key("short")
    cache.put(key, b"x" * 100)
    path = cache._path(key)
    path.write_bytes(path.read_bytes()[:10])
    assert cache.get(key) is None
    assert cache.stats.corrupt == 1


def test_eviction_keeps_newest_within_cap(tmp_path):
    cache = ArtifactCache(tmp_path, cap=3)
    keys = [content_key("blob", str(i)) for i in range(6)]
    for i, key in enumerate(keys):
        cache.put(key, bytes([i]))
        os.utime(cache._path(key), (i, i))     # force distinct mtimes
    assert len(cache) <= 3
    assert cache.get(keys[-1]) == bytes([5])   # newest survives
    assert cache.get(keys[0]) is None          # oldest evicted
    assert cache.stats.evicted >= 3


def test_lru_stamps_are_strictly_increasing(tmp_path):
    """Regression: recency used plain filesystem mtimes, whose
    granularity can be as coarse as one second — blobs stored or hit in
    the same tick tied, and eviction picked among hot blobs arbitrarily.
    Every touch must now issue a strictly greater ns stamp."""
    cache = ArtifactCache(tmp_path, cap=100)
    keys = [content_key("blob", str(i)) for i in range(8)]
    for i, key in enumerate(keys):
        cache.put(key, bytes([i]))
    stamps = [cache._path(k).stat().st_mtime_ns for k in keys]
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == len(stamps)     # no ties, ever
    # Hits re-stamp too, strictly above everything issued before.
    cache.get(keys[0])
    assert cache._path(keys[0]).stat().st_mtime_ns > max(stamps)


def test_eviction_tie_break_keeps_the_refreshed_blob(tmp_path):
    """Regression: with identical on-disk mtimes a get()-refreshed blob
    could be evicted while never-touched blobs survived.  The hit's
    fresh stamp must order it newest regardless of prior ties."""
    cache = ArtifactCache(tmp_path, cap=4)
    keys = [content_key("blob", str(i)) for i in range(4)]
    for i, key in enumerate(keys):
        cache.put(key, bytes([i]))
        os.utime(cache._path(key), ns=(1_000, 1_000))  # force a 4-way tie
    assert cache.get(keys[0]) == bytes([0])    # the hot blob
    cache.put(content_key("blob", "new"), b"n")
    cache.put(content_key("blob", "new2"), b"n2")
    assert len(cache) <= 4
    assert cache.get(keys[0]) == bytes([0])    # survived both evictions
    assert cache.stats.evicted == 2


def test_clear_on_never_populated_root(tmp_path, monkeypatch):
    """Regression: ``clear()`` before any ``put`` used to raise
    FileNotFoundError iterating the absent ``objects/`` directory."""
    cache = ArtifactCache(tmp_path / "fresh")
    cache.clear()                              # must not raise
    assert len(cache) == 0
    assert cache.get(analysis_key("anything")) is None
    # The default store hits the same path when WRL_CACHE_DIR points at
    # a directory nothing has written to yet.
    monkeypatch.setenv("WRL_CACHE_DIR", str(tmp_path / "untouched"))
    get_default_cache().clear()                # must not raise either


def test_warm_put_does_not_relist_objects(tmp_path, monkeypatch):
    """Regression: every ``put`` used to walk the entire ``objects/``
    tree to count blobs for eviction — O(n) per store on a warm cache.
    With the cached count, only the first put after construction (or
    after an invalidation) may list the tree."""
    cache = ArtifactCache(tmp_path, cap=100)
    listings = []
    real_iterdir = type(cache.objects_dir).iterdir

    def counting_iterdir(self):
        if self == cache.objects_dir:
            listings.append(1)
        return real_iterdir(self)

    monkeypatch.setattr(type(cache.objects_dir), "iterdir",
                        counting_iterdir)
    for i in range(20):
        cache.put(content_key("blob", str(i)), bytes([i]))
    assert sum(listings) <= 1
    # The count stayed exact: eviction still sees 20 blobs.
    assert cache._nblobs == 20 == len(cache)


def test_cached_count_still_enforces_cap(tmp_path):
    """The O(1) fast path must not let the store grow past its cap."""
    cache = ArtifactCache(tmp_path, cap=4)
    keys = [content_key("blob", str(i)) for i in range(10)]
    for i, key in enumerate(keys):
        cache.put(key, bytes([i]))
        os.utime(cache._path(key), (i, i))
    assert len(cache) <= 4
    # Overwriting an existing key must not inflate the count.
    survivors = [k for k in keys if cache._path(k).exists()]
    before = cache._nblobs
    cache.put(survivors[0], b"replacement")
    assert cache._nblobs == len(cache)
    assert cache._nblobs <= before + 1


def test_corruption_invalidates_cached_count(tmp_path):
    """Detecting a corrupt blob deletes it behind the counter's back, so
    the cached count must be dropped and re-derived."""
    cache = ArtifactCache(tmp_path, cap=100)
    key = analysis_key("source")
    cache.put(key, b"payload")
    assert cache._nblobs == 1
    path = cache._path(key)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    assert cache.get(key) is None              # corrupt: unlinked
    assert cache._nblobs is None               # count invalidated
    cache.put(key, b"payload")                 # recount on next evict
    assert cache._nblobs == 1 == len(cache)


# ---- corrupted blobs are recompiled end to end ----------------------------

def test_corrupt_analysis_blob_recompiles(tmp_path):
    cache = ArtifactCache(tmp_path)
    tool = get_tool("malloc")
    runner._analysis_cache.clear()
    pristine = runner.analysis_unit_for(tool, cache=cache).to_bytes()
    key = analysis_key(tool.analysis_source)
    path = cache._path(key)
    blob = bytearray(path.read_bytes())
    blob[40] ^= 0xA5
    path.write_bytes(bytes(blob))

    runner._analysis_cache.clear()
    before = runner.COMPILE_COUNTS["analysis"]
    rebuilt = runner.analysis_unit_for(tool, cache=cache)
    assert runner.COMPILE_COUNTS["analysis"] == before + 1
    assert rebuilt.to_bytes() == pristine


# ---- undecodable payloads, for every kind of artifact ----------------------

_PROF = get_tool("prof")


def _fetch_workload(store):
    workloads._exe_cache.pop("fib", None)
    return build_workload("fib", cache=store).to_bytes()


def _fetch_analysis(store):
    runner._analysis_cache.pop(analysis_key(_PROF.analysis_source), None)
    return runner.analysis_unit_for(_PROF, cache=store).to_bytes()


def _fetch_instrumented(store):
    app = build_workload("fib", cache=None)
    return runner.apply_tool(app, _PROF, cache=store).module.to_bytes()


def _instrumented_key():
    return instrument_key(build_workload("fib", cache=None).to_bytes(),
                          _PROF.analysis_source,
                          runner._instrument_fingerprint(_PROF), "O1",
                          "linked", ())


#: kind -> (its key, a lookup through its public API with a cold
#: in-process memo, and the framing a module's bytes get in its payload)
ARTIFACTS = {
    "workload": (lambda: executable_key((load_source("fib"),), "fib"),
                 _fetch_workload, lambda module_bytes: module_bytes),
    "analysis": (lambda: analysis_key(_PROF.analysis_source),
                 _fetch_analysis, lambda module_bytes: module_bytes),
    "instrumented": (_instrumented_key, _fetch_instrumented,
                     lambda module_bytes: pack_instrument(module_bytes, {})),
}


def _no_compiles(monkeypatch):
    def forbidden(*args, **kw):
        raise AssertionError("compiled despite a stored artifact")

    monkeypatch.setattr(runner, "build_analysis_unit", forbidden)
    monkeypatch.setattr(runner, "instrument_executable", forbidden)
    monkeypatch.setattr(workloads, "build_executable", forbidden)


@pytest.mark.parametrize("kind", sorted(ARTIFACTS))
def test_undecodable_artifact_is_a_counted_corruption(kind, tmp_path,
                                                      monkeypatch):
    """A digest-valid blob whose contents do not decode is a *counted*
    miss, once: the store's corrupt counter moves so the failure shows
    in trace summaries, and the rebuilt artifact replaces the blob, so
    the next lookup hits and returns the same bytes."""
    key, fetch, _ = ARTIFACTS[kind]
    store = ArtifactCache(tmp_path)
    store.put(key(), b"digest-valid but not a stored artifact")
    built = fetch(store)
    assert store.stats.corrupt == 1
    _no_compiles(monkeypatch)
    assert fetch(store) == built
    assert store.stats.corrupt == 1


def test_garbage_instrument_payload_recompiles(tmp_path):
    """A blob that passes the integrity hash but does not unpack as an
    instrumented executable is treated as a miss, not a crash: the
    result reports a compile, and the next call hits the rebuilt blob."""
    cache = ArtifactCache(tmp_path)
    app = build_workload("fib")
    cache.put(_instrumented_key(), b"this is not an instrumented executable")
    before = runner.COMPILE_COUNTS["instrument"]
    result = runner.apply_tool(app, _PROF, cache=cache)
    assert runner.COMPILE_COUNTS["instrument"] == before + 1
    assert not result.cached
    warm = runner.apply_tool(app, _PROF, cache=cache)
    assert warm.cached
    assert warm.module.to_bytes() == result.module.to_bytes()


def test_undecodable_payload_is_a_counted_corruption(tmp_path):
    """A digest-valid blob whose contents do not unpack is a *counted*
    miss: the store's corrupt counter must move so the failure shows up
    in trace summaries instead of being silently recompiled around."""
    cache = ArtifactCache(tmp_path)
    app = build_workload("fib")
    cache.put(_instrumented_key(),
              b"digest-valid but not an instrument payload")
    before = cache.stats.corrupt
    runner.apply_tool(app, _PROF, cache=cache)
    assert cache.stats.corrupt == before + 1


@pytest.mark.parametrize("kind", sorted(ARTIFACTS))
def test_decoder_bug_propagates_not_swallowed(kind, tmp_path, monkeypatch):
    """Regression: the cache-decode path caught blanket ``Exception``,
    so a programming error in the decoder was laundered into a
    permanent cache miss.  Only ``cache.DECODE_ERRORS`` count as a
    corrupt blob; a ``TypeError`` raises and counts nothing."""
    key, fetch, frame = ARTIFACTS[kind]
    planted = b"the decoder breaks on this module only"
    store = ArtifactCache(tmp_path)
    store.put(key(), frame(planted))
    decode = Module.from_bytes.__func__

    def broken(cls, blob):
        if blob == planted:
            raise TypeError("decoder bug")
        return decode(cls, blob)

    monkeypatch.setattr(Module, "from_bytes", classmethod(broken))
    with pytest.raises(TypeError, match="decoder bug"):
        fetch(store)
    assert store.stats.corrupt == 0


def test_taint_env_perturbs_the_instrument_fingerprint(monkeypatch):
    """The taint tool reads ``WRL_TAINT_SOURCES`` when no tool args are
    given; a cached instrumented executable keyed without it would be
    served under the wrong sources."""
    tool = get_tool("taint")
    monkeypatch.setenv("WRL_TAINT_SOURCES", "argv")
    fp_argv = runner._instrument_fingerprint(tool)
    monkeypatch.setenv("WRL_TAINT_SOURCES", "stdin")
    fp_stdin = runner._instrument_fingerprint(tool)
    assert fp_argv != fp_stdin
    monkeypatch.setenv("WRL_TAINT_SOURCES", "argv")
    assert runner._instrument_fingerprint(tool) == fp_argv
    # Tools without the hook are unaffected.
    assert runner._instrument_fingerprint(get_tool("prof"))


def test_pack_unpack_roundtrip_and_format_errors():
    payload = pack_instrument(b"MODULE", {"points": 3})
    module_bytes, stats = unpack_instrument(payload)
    assert module_bytes == b"MODULE" and stats == {"points": 3}
    with pytest.raises(CacheFormatError):
        unpack_instrument(b"\x00")
    with pytest.raises(CacheFormatError):
        unpack_instrument(b"\x00\x00\x00\x02{}garbage-header")


# ---- environment knobs ----------------------------------------------------

def test_wrl_cache_dir_overrides_location(tmp_path, monkeypatch):
    monkeypatch.setenv("WRL_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert default_cache_dir() == tmp_path / "elsewhere"
    assert get_default_cache().root == tmp_path / "elsewhere"


def test_wrl_cache_0_disables_the_store(monkeypatch):
    monkeypatch.setenv("WRL_CACHE", "0")
    assert not cache_enabled()
    assert get_default_cache() is None
    # The runner still works — it just compiles.
    tool = get_tool("io")
    runner._analysis_cache.clear()
    before = runner.COMPILE_COUNTS["analysis"]
    unit = runner.analysis_unit_for(tool)
    assert unit.to_bytes()
    assert runner.COMPILE_COUNTS["analysis"] == before + 1
    runner._analysis_cache.clear()


def test_default_cache_memoized_per_root(tmp_path, monkeypatch):
    monkeypatch.setenv("WRL_CACHE_DIR", str(tmp_path))
    first = get_default_cache()
    second = get_default_cache()
    assert first is second
    monkeypatch.setenv("WRL_CACHE_DIR", str(tmp_path / "other"))
    assert get_default_cache() is not first
