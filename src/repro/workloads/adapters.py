"""A uniform transactional-store interface over both stacks.

The OLTP and YCSB workloads are written once against this adapter and
run against either the KAML caching layer or the Shore-MT-style engine —
mirroring the paper's methodology, where both systems "provide the same
functionality" (Section V-A).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.baseline import ShoreMtEngine
from repro.cache import KamlStore
from repro.kaml import NamespaceAttributes


class KamlAdapter:
    """Tables are KAML namespaces; isolation via the caching layer."""

    name = "kaml"

    def __init__(self, store: KamlStore):
        self.store = store
        self._tables: Dict[str, int] = {}

    def create_table(self, table: str, expected_rows: int) -> Any:
        namespace_id = yield from self.store.create_namespace(
            NamespaceAttributes(expected_keys=max(64, expected_rows))
        )
        self._tables[table] = namespace_id

    def namespace_of(self, table: str) -> int:
        return self._tables[table]

    # -- transactional ops (generators) ------------------------------------

    def run_transaction(self, body, max_retries: int = 64) -> Any:
        result = yield from self.store.run_transaction(body, max_retries)
        return result

    def read(self, txn, table: str, key: int) -> Any:
        value = yield from self.store.transaction_read(
            txn, self._tables[table], key
        )
        return value

    def read_for_update(self, txn, table: str, key: int) -> Any:
        value = yield from self.store.transaction_read_for_update(
            txn, self._tables[table], key
        )
        return value

    def update(self, txn, table: str, key: int, value: Any, size: int) -> Any:
        yield from self.store.transaction_update(
            txn, self._tables[table], key, value, size
        )

    def insert(self, txn, table: str, key: int, value: Any, size: int) -> Any:
        yield from self.store.transaction_insert(
            txn, self._tables[table], key, value, size
        )

    # -- non-transactional population ---------------------------------------

    def load(self, table: str, key: int, value: Any, size: int) -> Any:
        yield from self.store.put(self._tables[table], key, value, size)

    @property
    def committed(self) -> int:
        return int(self.store.metrics.total("store.txn.committed"))

    @property
    def aborted(self) -> int:
        return int(self.store.metrics.total("store.txn.aborted"))


class ShoreAdapter:
    """Thin pass-through to the Shore-MT-style engine."""

    name = "shore-mt"

    def __init__(self, engine: ShoreMtEngine, table_pages: int = 256):
        self.engine = engine
        self.table_pages = table_pages

    def create_table(self, table: str, expected_rows: int) -> Any:
        # Size the file for the expected rows (~7 records of 512 B per
        # 4 KB page), with slack for growth.
        pages = max(16, expected_rows // 4)
        self.engine.create_table(table, pages=min(pages, self.table_pages * 64))
        yield self.engine.env.timeout(0.0)

    def run_transaction(self, body, max_retries: int = 64) -> Any:
        result = yield from self.engine.run_transaction(body, max_retries)
        return result

    def read(self, txn, table: str, key: int) -> Any:
        value = yield from self.engine.read(txn, table, key)
        return value

    def read_for_update(self, txn, table: str, key: int) -> Any:
        value = yield from self.engine.read_for_update(txn, table, key)
        return value

    def update(self, txn, table: str, key: int, value: Any, size: int) -> Any:
        yield from self.engine.update(txn, table, key, value, size)

    def insert(self, txn, table: str, key: int, value: Any, size: int) -> Any:
        yield from self.engine.insert(txn, table, key, value, size)

    def load(self, table: str, key: int, value: Any, size: int) -> Any:
        """Population fast-path: direct heap insert, no WAL or locking."""
        yield from self.engine.table(table).insert(key, value, size)

    @property
    def committed(self) -> int:
        return self.engine.committed

    @property
    def aborted(self) -> int:
        return self.engine.aborted
