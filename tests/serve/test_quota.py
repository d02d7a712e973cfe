"""Per-tenant cache namespace and quota tests: a tenant over quota
evicts only its own blobs, and byte quotas bound the store's footprint
independently of the entry cap."""

from repro.eval.cache import ArtifactCache
from repro.serve.quota import TenantCaches

#: Blobs land on disk as sha256-digest + payload; byte quotas meter the
#: on-disk size, so every payload costs this much extra.
_OVERHEAD = 32


def _fill(cache: ArtifactCache, n: int, size: int = 16,
          prefix: str = "k") -> list[str]:
    keys = []
    for i in range(n):
        key = f"{prefix}{i:04d}"
        cache.put(key, bytes([i % 256]) * size)
        keys.append(key)
    return keys


def test_tenant_namespaces_are_disjoint(tmp_path):
    tc = TenantCaches(tmp_path, cap=4)
    a, b = tc.cache("alice"), tc.cache("bob")
    a.put("shared-key", b"alice data")
    b.put("shared-key", b"bob data")
    assert a.get("shared-key") == b"alice data"
    assert b.get("shared-key") == b"bob data"
    assert a.root != b.root
    assert str(tc.root) in str(a.root)


def test_quota_evicts_only_own_blobs(tmp_path):
    tc = TenantCaches(tmp_path, cap=4)
    alice, bob = tc.cache("alice"), tc.cache("bob")
    bob_keys = _fill(bob, 3, prefix="b")
    # Alice blows through her cap several times over.
    _fill(alice, 20, prefix="a")
    assert len(alice) <= 4
    # Bob's namespace is untouched: every blob still readable.
    for key in bob_keys:
        assert bob.get(key) is not None
    assert len(bob) == 3


def test_byte_quota_evicts_lru_first(tmp_path):
    blob = 40 + _OVERHEAD                 # 72 bytes on disk each
    cache = ArtifactCache(tmp_path / "c", cap=1000,
                          max_bytes=2 * blob + 6)
    cache.put("old", b"x" * 40)
    cache.put("mid", b"y" * 40)
    cache.get("old")              # refresh: "mid" is now LRU
    cache.put("new", b"z" * 40)   # 3 blobs > quota: must evict
    assert cache.total_bytes() <= 2 * blob + 6
    assert cache.get("mid") is None
    assert cache.get("old") is not None
    assert cache.get("new") is not None


def test_byte_quota_and_cap_both_enforced(tmp_path):
    cache = ArtifactCache(tmp_path / "c", cap=3, max_bytes=10_000)
    _fill(cache, 10, size=8)
    assert len(cache) <= 3
    quota = 3 * (16 + _OVERHEAD)
    cache2 = ArtifactCache(tmp_path / "c2", cap=1000, max_bytes=quota)
    _fill(cache2, 10, size=16)
    assert cache2.total_bytes() <= quota
    assert len(cache2) == 3


def test_overwrite_keeps_byte_accounting_sane(tmp_path):
    cache = ArtifactCache(tmp_path / "c", cap=10, max_bytes=10_000)
    cache.put("k", b"a" * 100)
    cache.put("k", b"b" * 300)    # overwrite with different size
    assert cache.total_bytes() == 300 + _OVERHEAD
    cache.put("k2", b"c" * 50)
    assert cache.total_bytes() == 350 + 2 * _OVERHEAD


def test_usage_reporting(tmp_path):
    tc = TenantCaches(tmp_path, cap=8, max_bytes=4096)
    _fill(tc.cache("alice"), 3, size=32)
    usage = tc.usage("alice")
    assert usage["blobs"] == 3
    assert usage["bytes"] == 3 * (32 + _OVERHEAD)
    assert usage["cap"] == 8 and usage["max_bytes"] == 4096
    # usage_all sees tenants from disk even with fresh bookkeeping.
    fresh = TenantCaches(tmp_path, cap=8)
    assert "alice" in fresh.usage_all()


def test_tenant_cache_survives_pickling(tmp_path):
    """The daemon hands a tenant's store object to a pool worker: the
    unpickled copy is the same quota-bounded namespace."""
    import pickle

    tc = TenantCaches(tmp_path, cap=8, max_bytes=4096)
    cache = pickle.loads(pickle.dumps(tc.cache("alice")))
    assert (cache.root, cache.cap, cache.max_bytes) == \
        (tc.tenant_root("alice"), 8, 4096)
    cache.put("k", b"v")
    assert tc.cache("alice").get("k") == b"v"