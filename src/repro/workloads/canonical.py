"""The canonical workloads, defined once for every harness driver.

``harness perf``, ``prof``, ``record`` and ``obs`` all run these, so the
perf gate's event counts, the kamlprof breakdown, a captured journal and
the obs dashboard describe the same workload.  Each is *set up* (the
namespace or the YCSB table load) and then *run*; a driver that acts in
between (``prof`` drains and clears its recorder, ``obs`` arms its SLOs
and op journal) does so between the two calls.

``mixed``
    50/50 Put/Get of 512 B values over ``key_space`` uniformly drawn
    keys in one namespace sized for 75% of them.  Worker ``t`` draws from
    ``Random(seed + 997 * t)``.
``ycsb-b``
    YCSB B (95% read, zipfian) over ``records`` rows, through the
    caching layer and lock table (the Figure 10 stack).
"""

from __future__ import annotations

import random
from typing import Any, Generator, Union

from repro.cache import KamlStore
from repro.kaml import NamespaceAttributes
from repro.sim import Environment, Event
from repro.workloads.adapters import KamlAdapter
from repro.workloads.oltp import drive
from repro.workloads.ycsb import Ycsb

#: Canonical workload names, in display order.
WORKLOADS = ("mixed", "ycsb-b")


class Mixed:
    """The 50/50 Get/Put mix of 512 B values over one namespace."""

    VALUE_BYTES = 512

    def __init__(
        self, env: Environment, store: KamlStore, seed: int, key_space: int
    ) -> None:
        self.env = env
        self.store = store
        self.seed = seed
        self.key_space = key_space
        self.namespace_id = 0

    def setup(self) -> None:
        attributes = NamespaceAttributes(
            expected_keys=int(0.75 * self.key_space), target_load=0.75
        )
        self.namespace_id = drive(
            self.env, self.store.ssd.create_namespace(attributes)
        )

    def start(self, ops: int, threads: int) -> Event:
        """Spawn the workers; the returned event fires when all are done."""
        ops_per_thread = max(1, ops // threads)
        return self.env.all_of([
            self.env.process(
                self._worker(random.Random(self.seed + 997 * t), ops_per_thread)
            )
            for t in range(threads)
        ])

    def run(self, ops: int, threads: int) -> None:
        self.env.run_until(self.start(ops, threads))

    def _worker(self, rng: random.Random, ops: int) -> Generator[Any, Any, None]:
        for _ in range(ops):
            key = rng.randrange(self.key_space)
            if rng.random() < 0.5:
                yield from self.store.put(
                    self.namespace_id, key, ("mixed", key), self.VALUE_BYTES
                )
            else:
                yield from self.store.get(self.namespace_id, key)


class YcsbB:
    """YCSB B through the caching layer."""

    def __init__(
        self, env: Environment, store: KamlStore, seed: int, records: int
    ) -> None:
        self.ycsb = Ycsb(
            env, KamlAdapter(store), records=records, workload="b", seed=seed
        )

    def setup(self) -> None:
        self.ycsb.setup()

    def run(self, ops: int, threads: int) -> None:
        self.ycsb.run(threads=threads, ops_per_thread=max(1, ops // threads))


CanonicalWorkload = Union[Mixed, YcsbB]


def canonical(
    name: str,
    env: Environment,
    store: KamlStore,
    seed: int,
    key_space: int = 512,
    records: int = 1000,
) -> CanonicalWorkload:
    """Build workload ``name``; ``key_space`` sizes ``mixed``, ``records``
    sizes ``ycsb-b``."""
    if name == "mixed":
        return Mixed(env, store, seed, key_space)
    if name == "ycsb-b":
        return YcsbB(env, store, seed, records)
    raise ValueError(
        f"unknown canonical workload {name!r} (choose from {', '.join(WORKLOADS)})"
    )
