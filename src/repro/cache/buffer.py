"""The host key-value cache (Section III-D "Caching").

Unlike a page cache, entries are variable-sized key-value pairs keyed by
(namespace id, key).  Misses issue ``Get`` to the SSD; transactional
commits write through with ``Put``; non-transactional writes may stay
dirty and are flushed by eviction.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Tuple

from repro.config import HostCosts
from repro.kaml import KamlSsd, PutItem
from repro.obs import TraceContext
from repro.sim import Environment


class _Entry:
    __slots__ = ("value", "size", "dirty")

    def __init__(self, value: Any, size: int, dirty: bool):
        self.value = value
        self.size = size
        self.dirty = dirty


class BufferManager:
    """LRU cache of key-value pairs with byte-granular capacity."""

    def __init__(
        self,
        env: Environment,
        ssd: KamlSsd,
        capacity_bytes: int,
        costs: HostCosts,
    ):
        if capacity_bytes <= 0:
            raise ValueError("cache capacity must be positive")
        self.env = env
        self.ssd = ssd
        self.capacity_bytes = capacity_bytes
        self.costs = costs
        self._entries: "OrderedDict[Tuple[int, int], _Entry]" = OrderedDict()
        self._used = 0
        self.metrics = ssd.metrics
        # Hot-path instruments, resolved once instead of per access.
        self._used_bytes_gauge = self.metrics.gauge("cache.used_bytes")
        self._writebacks_counter = self.metrics.counter("cache.writebacks")
        self._evictions_counter = self.metrics.counter("cache.evictions")
        self._read_counters: dict = {}

    @property
    def used_bytes(self) -> int:
        return self._used

    def __contains__(self, cache_key: Tuple[int, int]) -> bool:
        return cache_key in self._entries

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def read(
        self, namespace_id: int, key: int, ctx: "TraceContext" = None
    ) -> Any:
        """Return ``(value, size)`` or None; fills from the SSD on miss."""
        cache_span = ctx.begin(
            "cache.read", namespace=namespace_id, key=key
        ) if ctx is not None else None
        yield self.env.timeout(self.costs.cache_probe_us)
        cache_key = (namespace_id, key)
        counters = self._read_counters.get(namespace_id)
        if counters is None:
            counters = (
                self.metrics.counter("cache.reads", namespace=namespace_id),
                self.metrics.counter("cache.hits", namespace=namespace_id),
                self.metrics.counter("cache.misses", namespace=namespace_id),
            )
            self._read_counters[namespace_id] = counters
        counters[0].inc()
        try:
            entry = self._entries.get(cache_key)
            if entry is not None:
                counters[1].inc()
                if cache_span is not None:
                    cache_span.tags["hit"] = True
                self._entries.move_to_end(cache_key)
                return entry.value, entry.size
            counters[2].inc()
            if cache_span is not None:
                cache_span.tags["hit"] = False
            result = yield from self.ssd.get_record(namespace_id, key, ctx=ctx)
            if result is None:
                return None
            value, size = result
            yield from self._insert(cache_key, value, size, dirty=False)
            return value, size
        finally:
            if ctx is not None:
                ctx.finish(cache_span)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def install_clean(self, namespace_id: int, key: int, value: Any, size: int) -> Any:
        """Place a just-persisted value in the cache (commit write-through)."""
        yield from self._insert((namespace_id, key), value, size, dirty=False)

    def install_dirty(self, namespace_id: int, key: int, value: Any, size: int) -> Any:
        """Write-back path: the value is newer than the SSD's copy."""
        yield from self._insert((namespace_id, key), value, size, dirty=True)

    def discard(self, namespace_id: int, key: int) -> None:
        entry = self._entries.pop((namespace_id, key), None)
        if entry is not None:
            self._used -= entry.size

    def flush(self) -> Any:
        """Write every dirty entry back to the SSD (one batched Put)."""
        dirty = [
            (cache_key, entry)
            for cache_key, entry in self._entries.items()
            if entry.dirty
        ]
        if not dirty:
            return
        items = [
            PutItem(cache_key[0], cache_key[1], entry.value, entry.size)
            for cache_key, entry in dirty
        ]
        yield from self.ssd.put(items)
        for _cache_key, entry in dirty:
            entry.dirty = False
        self._writebacks_counter.inc(len(dirty))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _insert(self, cache_key: Tuple[int, int], value: Any, size: int, dirty: bool) -> Any:
        if size > self.capacity_bytes:
            raise ValueError(
                f"value of {size} B exceeds cache capacity {self.capacity_bytes} B"
            )
        existing = self._entries.get(cache_key)
        if existing is not None:
            self._used -= existing.size
            existing.value = value
            existing.size = size
            existing.dirty = existing.dirty or dirty
            self._used += size
            self._entries.move_to_end(cache_key)
        else:
            self._entries[cache_key] = _Entry(value, size, dirty)
            self._used += size
        while self._used > self.capacity_bytes:
            yield from self._evict_one()
        self._used_bytes_gauge.set(self._used)
        yield self.env.timeout(size / self.costs.copy_bytes_per_us)

    def _evict_one(self) -> Any:
        victim_key, victim = next(iter(self._entries.items()))
        if victim.dirty:
            yield from self.ssd.put(
                [PutItem(victim_key[0], victim_key[1], victim.value, victim.size)]
            )
            self._writebacks_counter.inc()
        self._entries.pop(victim_key, None)
        self._used -= victim.size
        self._evictions_counter.inc()
        self._used_bytes_gauge.set(self._used)
