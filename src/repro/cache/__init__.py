"""The KAML caching layer (``libkaml`` + host cache, Section III-D).

Variable-size key-value caching in host DRAM, plus a transaction manager
that adds isolation (strong strict two-phase locking) on top of the SSD's
native atomicity and durability.  The lock manager supports record-level
locks, coarser lock striping (N records per lock), and page-granularity
emulation — the knobs behind Figure 9's locking-granularity results.
"""

from repro.cache.locks import (
    LockManager,
    LockMode,
    DeadlockError,
)
from repro.cache.transaction import Transaction, TransactionError, TxnState
from repro.cache.buffer import BufferManager
from repro.cache.api import KamlStore

__all__ = [
    "LockManager",
    "LockMode",
    "DeadlockError",
    "Transaction",
    "TransactionError",
    "TxnState",
    "BufferManager",
    "KamlStore",
]
