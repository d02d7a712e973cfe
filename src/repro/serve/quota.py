"""Per-tenant cache namespaces with admission-side quotas.

The daemon never shares one artifact store across tenants: each tenant
gets its own :class:`~repro.eval.cache.ArtifactCache` rooted at
``<root>/tenants/<tenant>/`` with its own entry cap and optional byte
quota.  Because LRU eviction in an ``ArtifactCache`` is scoped to its
root by construction, a tenant blowing through its quota can only ever
evict *its own* blobs — a noisy tenant degrades its own hit rate, not
its neighbours'.

The daemon passes a tenant's store object itself to the worker that
runs the tenant's eval cell, as that cell's one store for tool
artifacts (workloads still come from the worker's default store); this
module only decides *where* each tenant's store lives and reports usage
for the ``stats`` op.
"""

from __future__ import annotations

from pathlib import Path

from ..eval.cache import ArtifactCache, default_cache_dir

DEFAULT_TENANT = "default"
#: Default per-tenant entry cap (smaller than the global single-user
#: default of 512: a multi-tenant daemon multiplies stores).
DEFAULT_TENANT_CAP = 256


class TenantCaches:
    """Maps tenant names to quota-bounded cache namespaces."""

    def __init__(self, root: Path | str | None = None,
                 cap: int = DEFAULT_TENANT_CAP,
                 max_bytes: int | None = None):
        base = Path(root) if root is not None else default_cache_dir()
        self.root = base / "tenants"
        self.cap = cap
        self.max_bytes = max_bytes
        self._seen: set[str] = set()

    def tenant_root(self, tenant: str) -> Path:
        return self.root / tenant

    def cache(self, tenant: str) -> ArtifactCache:
        """A fresh handle on the tenant's store; it pickles, so the
        daemon hands it to the worker that runs the tenant's cell."""
        self._seen.add(tenant)
        return ArtifactCache(self.tenant_root(tenant), cap=self.cap,
                             max_bytes=self.max_bytes)

    def tenants(self) -> list[str]:
        """Every tenant with a namespace: seen this run or on disk."""
        names = set(self._seen)
        try:
            names.update(p.name for p in self.root.iterdir()
                         if p.is_dir())
        except OSError:
            pass
        return sorted(names)

    def usage(self, tenant: str) -> dict:
        cache = ArtifactCache(self.tenant_root(tenant), cap=self.cap,
                              max_bytes=self.max_bytes)
        return {"blobs": len(cache), "bytes": cache.total_bytes(),
                "cap": self.cap, "max_bytes": self.max_bytes}

    def usage_all(self) -> dict[str, dict]:
        return {tenant: self.usage(tenant) for tenant in self.tenants()}
