"""``libkaml`` + caching layer: the Table II transactional API.

``KamlStore`` is what applications link against: it combines the buffer
manager (host DRAM cache), the SS2PL lock manager (isolation), and the
KAML SSD (atomicity + durability).  It serves as a database storage
engine in the OLTP experiments and as a NoSQL key-value store in the
YCSB experiments (Section V).

Typical transactional use::

    txn = store.transaction_begin()
    value = yield from store.transaction_read(txn, nsid, key)
    yield from store.transaction_update(txn, nsid, key, new_value, size)
    yield from store.transaction_commit(txn)
    store.transaction_free(txn)

Deadlock victims raise :class:`~repro.cache.locks.DeadlockError` from
read/update/insert; callers abort and retry.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.cache.buffer import BufferManager
from repro.cache.locks import DeadlockError, LockManager, LockMode
from repro.cache.transaction import DELETED, Transaction, TxnState
from repro.config import HostCosts
from repro.kaml import KamlSsd, NamespaceAttributes, PutItem
from repro.sim import Environment


class KamlStore:
    """The KAML caching layer's application-facing API."""

    def __init__(
        self,
        env: Environment,
        ssd: KamlSsd,
        cache_bytes: int,
        records_per_lock: int = 1,
        costs: Optional[HostCosts] = None,
    ):
        self.env = env
        self.ssd = ssd
        self.costs = costs or ssd.config.host
        self.metrics = ssd.metrics
        self.tracer = ssd.tracer
        self.slo = ssd.slo
        self.buffer = BufferManager(env, ssd, cache_bytes, self.costs)
        self.locks = LockManager(
            env, self.costs, records_per_lock=records_per_lock, metrics=self.metrics
        )
        # Bound once: every transaction bumps one of these.
        self._txn_begun = self.metrics.counter("store.txn.begun")
        self._txn_committed = self.metrics.counter("store.txn.committed")
        self._txn_aborted = self.metrics.counter("store.txn.aborted")
        self._next_txn_id = 1

    # ------------------------------------------------------------------
    # Namespace management (pass-through to the SSD)
    # ------------------------------------------------------------------

    def create_namespace(self, attributes: Optional[NamespaceAttributes] = None) -> Any:
        namespace_id = yield from self.ssd.create_namespace(attributes)
        return namespace_id

    def delete_namespace(self, namespace_id: int) -> Any:
        yield from self.ssd.delete_namespace(namespace_id)

    # ------------------------------------------------------------------
    # Table II: transactional API
    # ------------------------------------------------------------------

    def transaction_begin(self) -> Transaction:
        """``TransactionBegin()``: allocate an XCB and activate it."""
        txn = Transaction(self._next_txn_id)
        self._next_txn_id += 1
        txn.begin()
        self._txn_begun.inc()
        return txn

    def transaction_read(self, txn: Transaction, namespace_id: int, key: int) -> Any:
        """``TransactionRead()``: S-lock the record, serve it from the
        transaction's workspace, the cache, or the SSD."""
        txn.require_active()
        staged = txn.staged(namespace_id, key)
        if staged is DELETED:
            return None
        if staged is not None:
            return staged[0]
        started = self.env.now
        ctx = self.tracer.request(
            "store.txn.read", txn=txn.txn_id, namespace=namespace_id, key=key
        )
        result = None
        try:
            with ctx.span("lock.acquire", parent=ctx.root, mode="S"):
                yield from self.locks.acquire(
                    txn, self.locks.lock_name(namespace_id, key), LockMode.SHARED
                )
            txn.reads.add((namespace_id, key))
            result = yield from self.buffer.read(namespace_id, key, ctx=ctx)
        finally:
            ctx.close()
            oplog = self.ssd.oplog
            if oplog.enabled:
                # Transactional reads are the store-level workload too:
                # journal them as "get" rows so a captured OLTP/YCSB run
                # keeps its read mix (workspace-served reads never leave
                # the host and are not journaled).
                oplog.record(
                    "get", namespace_id, key,
                    result[1] if result is not None else 0,
                    started, self.env.now,
                    outcome="ok" if result is not None else "absent",
                    trace_id=ctx.trace_id, layer="store",
                )
        return result[0] if result is not None else None

    def transaction_read_for_update(
        self, txn: Transaction, namespace_id: int, key: int
    ) -> Any:
        """Read with an exclusive lock up front (SELECT ... FOR UPDATE).

        Avoids the S->X upgrade deadlocks that read-then-update patterns
        (TPC-B balance updates, YCSB-F read-modify-write) would otherwise
        generate under contention.
        """
        txn.require_active()
        staged = txn.staged(namespace_id, key)
        if staged is DELETED:
            return None
        if staged is not None:
            return staged[0]
        started = self.env.now
        ctx = self.tracer.request(
            "store.txn.read_for_update", txn=txn.txn_id, namespace=namespace_id, key=key
        )
        result = None
        try:
            with ctx.span("lock.acquire", parent=ctx.root, mode="X"):
                yield from self.locks.acquire(
                    txn, self.locks.lock_name(namespace_id, key), LockMode.EXCLUSIVE
                )
            txn.reads.add((namespace_id, key))
            result = yield from self.buffer.read(namespace_id, key, ctx=ctx)
        finally:
            ctx.close()
            oplog = self.ssd.oplog
            if oplog.enabled:
                oplog.record(
                    "get", namespace_id, key,
                    result[1] if result is not None else 0,
                    started, self.env.now,
                    outcome="ok" if result is not None else "absent",
                    trace_id=ctx.trace_id, layer="store",
                )
        return result[0] if result is not None else None

    def transaction_update(
        self, txn: Transaction, namespace_id: int, key: int, value: Any, size: int
    ) -> Any:
        """``TransactionUpdate()``: X-lock and stage a private copy; the
        change stays in host memory until commit."""
        txn.require_active()
        started = self.env.now
        yield from self.locks.acquire(
            txn, self.locks.lock_name(namespace_id, key), LockMode.EXCLUSIVE
        )
        yield self.env.timeout(size / self.costs.copy_bytes_per_us)
        txn.stage_write(namespace_id, key, value, size)
        oplog = self.ssd.oplog
        if oplog.enabled:
            # Journaled at stage time, even if the transaction later
            # aborts: the journal captures what the client asked for.
            # Durability is the commit's device-layer put batch.
            oplog.record(
                "put", namespace_id, key, size, started, self.env.now,
                layer="store",
            )

    def transaction_insert(
        self, txn: Transaction, namespace_id: int, key: int, value: Any, size: int
    ) -> Any:
        """``TransactionInsert()``: identical locking to update; semantic
        distinction kept for workload fidelity."""
        yield from self.transaction_update(txn, namespace_id, key, value, size)

    def transaction_delete(self, txn: Transaction, namespace_id: int, key: int) -> Any:
        """Extension: transactional delete (tombstone until commit)."""
        txn.require_active()
        started = self.env.now
        yield from self.locks.acquire(
            txn, self.locks.lock_name(namespace_id, key), LockMode.EXCLUSIVE
        )
        txn.stage_delete(namespace_id, key)
        oplog = self.ssd.oplog
        if oplog.enabled:
            oplog.record(
                "delete", namespace_id, key, 0, started, self.env.now,
                layer="store",
            )

    def transaction_commit(self, txn: Transaction) -> Any:
        """``TransactionCommit()``: publish private copies to the cache,
        flush them with one atomic ``Put``, release locks.

        The ``Put`` ack is the durability point (the SSD has the batch in
        NVRAM); multiple transactions commit in parallel when they touch
        disjoint records — the paper's key advantage over a centralized
        WAL (Section V-D-1)."""
        txn.require_active()
        items = []
        deletes = []
        for (namespace_id, key), staged in txn.writes.items():
            if staged is DELETED:
                deletes.append((namespace_id, key))
            else:
                value, size = staged
                items.append(PutItem(namespace_id, key, value, size))
        started = self.env.now
        ctx = self.tracer.request(
            "store.txn.commit",
            txn=txn.txn_id,
            records=len(items),
            deletes=len(deletes),
        )
        try:
            if items:
                yield from self.ssd.put(items, ctx=ctx)
                for item in items:
                    yield from self.buffer.install_clean(
                        item.namespace_id, item.key, item.value, item.size
                    )
            for namespace_id, key in deletes:
                yield from self.ssd.delete(namespace_id, key)
                self.buffer.discard(namespace_id, key)
            yield self.env.timeout(self.costs.txn_overhead_us)
            txn.mark_committed()
            self.locks.release_all(txn)
            self._txn_committed.inc()
        finally:
            ctx.close()
            self.slo.record(
                "txn.commit",
                items[0].namespace_id if items else None,
                started,
                self.env.now,
                ctx.trace_id,
            )

    def transaction_abort(self, txn: Transaction) -> Any:
        """``TransactionAbort()``: discard private copies, release locks."""
        txn.require_active()
        txn.writes.clear()
        yield self.env.timeout(self.costs.txn_overhead_us)
        txn.mark_aborted()
        self.locks.cancel_wait(txn)
        self.locks.release_all(txn)
        self._txn_aborted.inc()

    def transaction_free(self, txn: Transaction) -> None:
        """``TransactionFree()``: release the XCB (back to IDLE)."""
        txn.free()

    # ------------------------------------------------------------------
    # Non-transactional NoSQL convenience API
    # ------------------------------------------------------------------

    def get(self, namespace_id: int, key: int) -> Any:
        """Cache-accelerated read outside any transaction."""
        started = self.env.now
        ctx = self.tracer.request("store.get", namespace=namespace_id, key=key)
        result = None
        try:
            result = yield from self.buffer.read(namespace_id, key, ctx=ctx)
        finally:
            ctx.close()
            op_id = 0
            oplog = self.ssd.oplog
            if oplog.enabled:
                # layer="store" keeps host-level rows (cache hits
                # included) apart from the device rows the SSD journals
                # itself on a cache miss.
                op_id = oplog.record(
                    "get", namespace_id, key,
                    result[1] if result is not None else 0,
                    started, self.env.now,
                    outcome="ok" if result is not None else "absent",
                    trace_id=ctx.trace_id, layer="store",
                )
            self.slo.record(
                "store.get", namespace_id, started, self.env.now, ctx.trace_id,
                op_id=op_id,
            )
        return result[0] if result is not None else None

    def put(self, namespace_id: int, key: int, value: Any, size: int) -> Any:
        """Durable single-record write (write-through)."""
        started = self.env.now
        ctx = self.tracer.request("store.put", namespace=namespace_id, key=key)
        try:
            yield from self.ssd.put([PutItem(namespace_id, key, value, size)], ctx=ctx)
            yield from self.buffer.install_clean(namespace_id, key, value, size)
        finally:
            ctx.close()
            op_id = 0
            oplog = self.ssd.oplog
            if oplog.enabled:
                op_id = oplog.record(
                    "put", namespace_id, key, size, started, self.env.now,
                    trace_id=ctx.trace_id, layer="store",
                )
            self.slo.record(
                "store.put", namespace_id, started, self.env.now, ctx.trace_id,
                op_id=op_id,
            )

    def put_cached(self, namespace_id: int, key: int, value: Any, size: int) -> Any:
        """Write-back write: dirty in cache, flushed on eviction/flush."""
        yield from self.buffer.install_dirty(namespace_id, key, value, size)

    def snapshot(self, namespace_id: int) -> Any:
        """Freeze a namespace (commits are write-through, so the cache
        holds nothing newer than the SSD; the SSD drains its own staging
        pipeline before cloning).  Returns the snapshot id."""
        snapshot_id = yield from self.ssd.snapshot_namespace(namespace_id)
        return snapshot_id

    def get_from_snapshot(self, snapshot_id: int, key: int) -> Any:
        """Point-in-time read (bypasses the cache: snapshots are frozen)."""
        value = yield from self.ssd.get_from_snapshot(snapshot_id, key)
        return value

    def drop_snapshot(self, snapshot_id: int) -> Any:
        yield from self.ssd.delete_snapshot(snapshot_id)

    def scan(self, namespace_id: int, low: int, high: int) -> Any:
        """Range scan over a sorted namespace (bypasses the KV cache; the
        SSD merges its own staged writes, and commit is write-through, so
        results reflect every committed value)."""
        results = yield from self.ssd.scan(namespace_id, low, high)
        return results

    def flush(self) -> Any:
        yield from self.buffer.flush()

    # ------------------------------------------------------------------
    # Helpers for retry loops
    # ------------------------------------------------------------------

    def run_transaction(self, body, max_retries: int = 64) -> Any:
        """Execute ``body(txn)`` (a generator function) with begin/commit
        and deadlock-retry.  Returns the body's return value."""
        attempt = 0
        while True:
            txn = self.transaction_begin()
            try:
                result = yield from body(txn)
                yield from self.transaction_commit(txn)
                self.transaction_free(txn)
                return result
            except DeadlockError:
                attempt += 1
                if txn.state is TxnState.ACTIVE:
                    yield from self.transaction_abort(txn)
                self.transaction_free(txn)
                if attempt > max_retries:
                    raise
                # Brief randomless backoff proportional to attempt count.
                yield self.env.timeout(self.costs.txn_overhead_us * attempt)
