"""The benchmark's three workloads, each a closed loop of simulated clients.

A workload class has a ``name`` and four methods.  ``sizes()`` describes
it.  ``build()`` builds its stack through the repository's public build
functions, then loads and preconditions it (the set-up the benchmark
times as ``setup_s``).  ``clients(stack, seed)`` returns one generator
per simulated client for the timed window.  ``verify(stack)`` drains
and reads every touched key back.  Clients are sim processes: each
issues its next op only after the previous one was acknowledged.

Correctness is checked inside every workload.  Each key has exactly one
serial writer, whose acknowledged writes go into a host-side model; every
read in the window is checked against that model, and after ``drain()``
every touched key is read back through the device (or the serving tier,
for the cluster).  Mismatches, unexpected exceptions and cluster sheds are
recorded as failures.
"""

from __future__ import annotations

import dataclasses
import zlib
from random import Random
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.cache import KamlStore
from repro.cluster import (
    AdmissionError,
    Autobalancer,
    ClusterConfig,
    HotShardDetector,
    KamlCluster,
    install_cluster_probes,
)
from repro.config import KIB, MIB, FlashGeometry, ReproConfig
from repro.fault.cluster_harness import default_device_config
from repro.harness.runner import build_kaml_ssd, build_kaml_store
from repro.kaml import KamlSsd, NamespaceAttributes, PutItem
from repro.kaml.mapping_policy import DedicatedLogsPolicy
from repro.obs import MetricsRegistry, TimeSeriesCollector
from repro.sim import Environment
from repro.workloads import MultiTenantWorkload
from repro.workloads.keydist import ZipfianChooser
from repro.workloads.multitenant import DEFAULT_TENANTS, TenantSpec

from stats import OpSamples


#: Seed of everything before the timed window (load and warm-up), so
#: every ``--seed`` starts its window from the same device state.  A
#: string, so that no integer ``--seed`` reproduces the set-up's draws.
SETUP_SEED = "kamlbench-setup"


class Stack:
    """One built, loaded stack plus the state the window and checks share."""

    def __init__(self, env: Environment, devices: List[KamlSsd]):
        self.env = env
        self.devices = devices
        self.samples = OpSamples()
        #: The host-side model: key -> last acknowledged value.
        self.model: Dict[Any, Any] = {}
        #: Ops issued in the window, and the failures among them (plus
        #: failed read-backs), as human-readable strings.
        self.attempted = 0
        self.failures: List[str] = []
        self.verified = 0
        #: Extra registries whose counters the per-layer report reads.
        self.cluster_registry: Optional[MetricsRegistry] = None

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def run(self, generator: Any) -> Any:
        proc = self.env.process(generator)
        self.env.run_until(proc)
        return proc.value

    def timed_op(self, is_read: bool, op: Any) -> Iterator[Any]:
        """Run one op generator, record its simulated latency; returns
        (ok, value).  An exception is a failure, never a crash."""
        self.attempted += 1
        started = self.env.now
        try:
            value = yield from op
        except AdmissionError as exc:
            self.fail(f"shed: {exc}")
            return False, None
        except Exception as exc:  # every op error counts, the run goes on
            self.fail(f"{type(exc).__name__}: {exc}")
            return False, None
        self.samples.add(is_read, self.env.now - started)
        return True, value

    def check_read(self, where: str, key: Any, observed: Any, expected: Any) -> None:
        if observed != expected:
            self.fail(f"{where}[{key}]: expected {expected!r}, got {observed!r}")


def describe(geometry: FlashGeometry) -> str:
    return (
        f"{geometry.channels} ch x {geometry.chips_per_channel} chips x "
        f"{geometry.blocks_per_chip} blocks x {geometry.pages_per_block} "
        f"pages x {geometry.page_size // KIB} KiB"
    )


# ---------------------------------------------------------------------------
# store-ycsb-b: YCSB-B through KamlStore single-op transactions
# ---------------------------------------------------------------------------


class StoreYcsbB:
    """95% read / 5% update, zipfian, 1 KiB records, default device."""

    name = "store-ycsb-b"
    RECORDS = 16_000
    VALUE_SIZE = 1024
    #: The record set is about 10x the cache, so the zipf head hits the
    #: cache and the tail reads flash.
    CACHE_BYTES = RECORDS * VALUE_SIZE // 10
    CLIENTS = 8
    LOAD_BATCH = 8
    LOADERS = 8
    WARMUP_OPS_PER_CLIENT = 500
    OPS_PER_CLIENT = 3_000
    READ_FRACTION = 0.95

    def sizes(self) -> Dict[str, Any]:
        return {
            "loop": "closed",
            "records": self.RECORDS,
            "value_bytes": self.VALUE_SIZE,
            "cache_bytes": self.CACHE_BYTES,
            "geometry": describe(ReproConfig().geometry),
            "nvram_bytes": ReproConfig().resources.nvram_bytes,
            "logs": "one per target",
            "clients": self.CLIENTS,
            "think_us": 0,
            "warmup_ops": self.CLIENTS * self.WARMUP_OPS_PER_CLIENT,
            "window_ops": self.CLIENTS * self.OPS_PER_CLIENT,
            "mix": "95% txn read, 5% txn update, zipfian 0.99",
        }

    def build(self) -> Stack:
        env, ssd, store = build_kaml_store(cache_bytes=self.CACHE_BYTES)
        stack = Stack(env, [ssd])
        stack.store = store
        stack.chooser = ZipfianChooser(self.RECORDS, seed=SETUP_SEED)
        stack.namespace = stack.run(
            store.create_namespace(NamespaceAttributes(expected_keys=self.RECORDS * 2))
        )

        def loader(first: int) -> Iterator[Any]:
            for base in range(first, self.RECORDS, self.LOAD_BATCH * self.LOADERS):
                keys = range(base, min(base + self.LOAD_BATCH, self.RECORDS))
                items = [
                    PutItem(stack.namespace, key, (key, -1, 0), self.VALUE_SIZE)
                    for key in keys
                ]
                yield from ssd.put(items)
                for key in keys:
                    stack.model[key] = (key, -1, 0)

        loaders = [
            env.process(loader(i * self.LOAD_BATCH)) for i in range(self.LOADERS)
        ]
        env.run_until(env.all_of(loaders))
        stack.run(ssd.drain())
        # Fill the cache the way the window uses it; these ops are part
        # of set-up and are neither sampled nor checked as window ops.
        warm = [
            self._client(stack, Random(f"{SETUP_SEED}-{c}"), c,
                         self.WARMUP_OPS_PER_CLIENT, record=False)
            for c in range(self.CLIENTS)
        ]
        env.run_until(env.all_of([env.process(gen) for gen in warm]))
        return stack

    def clients(self, stack: Stack, seed: int) -> List[Iterator[Any]]:
        stack.chooser = ZipfianChooser(self.RECORDS, seed=seed)
        return [
            self._client(stack, Random(seed * 7919 + c), c, self.OPS_PER_CLIENT)
            for c in range(self.CLIENTS)
        ]

    def _client(self, stack: Stack, rng: Random, client: int, ops: int,
                record: bool = True) -> Iterator[Any]:
        store: KamlStore = stack.store
        namespace = stack.namespace
        model = stack.model
        # A record=False pass is set-up: it gets its own sequence range so
        # window values never repeat a set-up value.
        seq_base = 0 if record else -1_000_000
        for seq in range(ops):
            key = stack.chooser.next_key()
            if rng.random() < self.READ_FRACTION:
                def body(txn, key=key):
                    value = yield from store.transaction_read(txn, namespace, key)
                    # The S lock is held until commit: no writer can
                    # commit this key between the read and this check.
                    stack.check_read("read", key, value, model[key])
                    return value

                is_read = True
                value = None
            else:
                value = (key, client, seq_base + seq)

                def body(txn, key=key, value=value):
                    yield from store.transaction_update(
                        txn, namespace, key, value, self.VALUE_SIZE
                    )

                is_read = False
            if record:
                ok, _ = yield from stack.timed_op(is_read, store.run_transaction(body))
            else:
                yield from store.run_transaction(body)
                ok = True
            if ok and not is_read:
                # Commit acked: the new value is durable and visible.
                model[key] = value

    def verify(self, stack: Stack) -> Iterator[Any]:
        ssd = stack.devices[0]
        yield from ssd.drain()
        for key in sorted(stack.model):
            stack.verified += 1
            observed = yield from ssd.get(stack.namespace, key)
            stack.check_read("read-back", key, observed, stack.model[key])


# ---------------------------------------------------------------------------
# ssd-put-gc: write-heavy mix straight to KamlSsd, GC in steady state
# ---------------------------------------------------------------------------


class SsdPutGc:
    """~90% puts (some atomic batches), ~10% get_record, uniform keys."""

    name = "ssd-put-gc"
    BLOCKS_PER_CHIP = 16
    NVRAM_BYTES = 8 * MIB
    LOGS = 4
    #: 2032 B + 16 B record header = 16 chunks: four records per page.
    VALUE_SIZE = 2 * KIB - 16
    #: Live data is about half the dedicated logs' raw capacity.
    KEYS = 8_192
    CLIENTS = 8
    BATCH_FRACTION = 0.10
    BATCH_SIZE = 4
    READ_FRACTION = 0.10
    WARMUP_OPS_PER_CLIENT = 1_000
    OPS_PER_CLIENT = 1_500
    #: Closed-loop think time between a client's ops, microseconds: it
    #: holds the window near 85% of the GC-limited put capacity.  At
    #: saturation the write tail is set by rare GC stalls and swings by
    #: 25-50% between seeds of a window this long.
    THINK_US = (400.0, 1200.0)

    def config(self) -> ReproConfig:
        base = ReproConfig()
        return base.with_(
            geometry=dataclasses.replace(
                base.geometry, blocks_per_chip=self.BLOCKS_PER_CHIP
            ),
            resources=dataclasses.replace(
                base.resources, nvram_bytes=self.NVRAM_BYTES
            ),
        )

    def sizes(self) -> Dict[str, Any]:
        return {
            "loop": "closed",
            "keys": self.KEYS,
            "value_bytes": self.VALUE_SIZE,
            "geometry": describe(self.config().geometry),
            "nvram_bytes": self.NVRAM_BYTES,
            "dedicated_logs": self.LOGS,
            "clients": self.CLIENTS,
            "think_us": list(self.THINK_US),
            "warmup_ops": self.CLIENTS * self.WARMUP_OPS_PER_CLIENT,
            "window_ops": self.CLIENTS * self.OPS_PER_CLIENT,
            "mix": (
                f"{1 - self.READ_FRACTION - self.BATCH_FRACTION:.0%} single put, "
                f"{self.BATCH_FRACTION:.0%} {self.BATCH_SIZE}-record atomic put, "
                f"{self.READ_FRACTION:.0%} get_record; uniform keys"
            ),
        }

    def build(self) -> Stack:
        env, ssd = build_kaml_ssd(config=self.config())
        stack = Stack(env, [ssd])
        stack.namespace = stack.run(ssd.create_namespace(NamespaceAttributes(
            expected_keys=self.KEYS * 2,
            log_policy=DedicatedLogsPolicy(self.LOGS),
        )))
        # Load every key once (client c owns keys k with k % CLIENTS == c),
        # then precondition with the window's own mix until GC runs.
        loaders = [
            env.process(self._load(stack, ssd, c)) for c in range(self.CLIENTS)
        ]
        env.run_until(env.all_of(loaders))
        warm = [
            self._client(stack, Random(f"{SETUP_SEED}-{c}"), c,
                         self.WARMUP_OPS_PER_CLIENT, record=False)
            for c in range(self.CLIENTS)
        ]
        env.run_until(env.all_of([env.process(gen) for gen in warm]))
        return stack

    def _load(self, stack: Stack, ssd: KamlSsd, client: int) -> Iterator[Any]:
        keys = list(range(client, self.KEYS, self.CLIENTS))
        for base in range(0, len(keys), self.BATCH_SIZE):
            batch = keys[base:base + self.BATCH_SIZE]
            yield from ssd.put([
                PutItem(stack.namespace, key, (key, client, -1), self.VALUE_SIZE)
                for key in batch
            ])
            for key in batch:
                stack.model[key] = (key, client, -1)

    def clients(self, stack: Stack, seed: int) -> List[Iterator[Any]]:
        return [
            self._client(stack, Random(seed * 7919 + c), c, self.OPS_PER_CLIENT)
            for c in range(self.CLIENTS)
        ]

    def _client(self, stack: Stack, rng: Random, client: int, ops: int,
                record: bool = True) -> Iterator[Any]:
        ssd: KamlSsd = stack.devices[0]
        namespace = stack.namespace
        model = stack.model
        owned = self.KEYS // self.CLIENTS
        # A record=False pass is set-up: it gets its own sequence range so
        # window values never repeat a set-up value.
        seq_base = 0 if record else -1_000_000
        for seq in range(ops):
            yield stack.env.timeout(rng.uniform(*self.THINK_US))
            roll = rng.random()
            if roll < self.READ_FRACTION:
                key = rng.randrange(owned) * self.CLIENTS + client
                op = ssd.get_record(namespace, key)
                if record:
                    ok, result = yield from stack.timed_op(True, op)
                else:
                    ok, result = True, (yield from op)
                if ok:
                    value = result[0] if result is not None else None
                    stack.check_read("get_record", key, value, model[key])
                continue
            if roll < self.READ_FRACTION + self.BATCH_FRACTION:
                start = rng.randrange(owned - self.BATCH_SIZE)
                keys = [
                    (start + i) * self.CLIENTS + client
                    for i in range(self.BATCH_SIZE)
                ]
            else:
                keys = [rng.randrange(owned) * self.CLIENTS + client]
            values = [(key, client, seq_base + seq) for key in keys]
            op = ssd.put([
                PutItem(namespace, key, value, self.VALUE_SIZE)
                for key, value in zip(keys, values)
            ])
            if record:
                ok, _ = yield from stack.timed_op(False, op)
            else:
                yield from op
                ok = True
            if ok:
                # Phase 1 returned: the batch is logically committed.
                for key, value in zip(keys, values):
                    model[key] = value

    def verify(self, stack: Stack) -> Iterator[Any]:
        ssd = stack.devices[0]
        yield from ssd.drain()
        for key in sorted(stack.model):
            stack.verified += 1
            observed = yield from ssd.get(stack.namespace, key)
            stack.check_read("read-back", key, observed, stack.model[key])


# ---------------------------------------------------------------------------
# cluster-tenants: gold/silver/bronze tenants on a 4-shard cluster
# ---------------------------------------------------------------------------


class ClusterTenants:
    """The multi-tenant serving mix plus a migrating hot namespace."""

    name = "cluster-tenants"
    SHARDS = 4
    OPS_PER_WORKER = 800
    #: The hot homed namespace: one serial writer skewing shard 0 until
    #: the autobalancer migrates it (the ``harness cluster`` set-up).
    HOT_NAMESPACE = "hot-homed"
    HOT_TENANT = "gold"
    HOT_KEYS = 24
    HOT_OPS = 3_200
    HOT_VALUE_SIZE = 420
    HOT_THINK_US = (5.0, 30.0)
    HOT_RATIO = 1.2
    COLLECTOR_INTERVAL_US = 2_000.0
    BALANCE_INTERVAL_US = 8_000.0
    MAX_MIGRATIONS = 2

    def tenants(self) -> Tuple[TenantSpec, ...]:
        return tuple(
            dataclasses.replace(spec, ops_per_worker=self.OPS_PER_WORKER)
            for spec in DEFAULT_TENANTS
        )

    def sizes(self) -> Dict[str, Any]:
        device = default_device_config()
        return {
            "loop": "closed",
            "shards": self.SHARDS,
            "geometry_per_shard": describe(device.geometry),
            "nvram_bytes_per_shard": device.resources.nvram_bytes,
            "logs_per_shard": device.kaml.num_logs,
            "tenants": [
                {
                    "name": spec.name,
                    "workers": spec.workers,
                    "ops_per_worker": spec.ops_per_worker,
                    "key_space": spec.key_space,
                    "think_us": list(spec.think_us),
                }
                for spec in self.tenants()
            ],
            "hot_writer": {
                "ops": self.HOT_OPS, "keys": self.HOT_KEYS,
                "think_us": list(self.HOT_THINK_US),
            },
            "clients": sum(spec.workers for spec in self.tenants()) + 1,
            "window_ops": (
                sum(spec.workers * spec.ops_per_worker for spec in self.tenants())
                + self.HOT_OPS
            ),
        }

    def build(self) -> Stack:
        env = Environment()
        cluster = KamlCluster.build(
            env, default_device_config(), ClusterConfig(num_shards=self.SHARDS)
        )
        stack = Stack(env, [cluster.shards[s] for s in sorted(cluster.shards)])
        stack.cluster = cluster
        stack.cluster_registry = cluster.metrics
        collector = TimeSeriesCollector(env, interval_us=self.COLLECTOR_INTERVAL_US)
        install_cluster_probes(collector, cluster)
        stack.collector = collector
        detector = HotShardDetector(collector, cluster, hot_ratio=self.HOT_RATIO)
        stack.balancer = Autobalancer(
            cluster, detector,
            check_interval_us=self.BALANCE_INTERVAL_US,
            max_migrations=self.MAX_MIGRATIONS,
        )
        tenants = MultiTenantWorkload(env, cluster, self.tenants())

        def setup() -> Iterator[Any]:
            yield from tenants.setup()
            yield from cluster.create_namespace(
                self.HOT_NAMESPACE, tenant=self.HOT_TENANT, mode="homed",
                home_shard=0,
            )
            # Load the initial data: every key once, in key order.
            for spec in self.tenants():
                for key in range(spec.key_space):
                    value = (spec.name, key % spec.workers, key, -1)
                    yield from cluster.put(
                        spec.namespace(), [(key, value, spec.value_sizes[0])]
                    )
                    stack.model[(spec.namespace(), key)] = value
            for key in range(self.HOT_KEYS):
                value = ("hot", key, -1)
                yield from cluster.put(
                    self.HOT_NAMESPACE, [(key, value, self.HOT_VALUE_SIZE)]
                )
                stack.model[(self.HOT_NAMESPACE, key)] = value
            yield from cluster.drain()

        stack.run(setup())
        collector.start()
        stack.balancer.start()
        return stack

    def clients(self, stack: Stack, seed: int) -> List[Iterator[Any]]:
        gens = [
            self._worker(stack, spec, widx, seed)
            for spec in self.tenants()
            for widx in range(spec.workers)
        ]
        gens.append(self._hot_writer(stack, seed))
        return gens

    def _worker(self, stack: Stack, spec: TenantSpec, widx: int,
                seed: int) -> Iterator[Any]:
        """The ``MultiTenantWorkload`` op mix, with every read checked."""
        cluster: KamlCluster = stack.cluster
        rng = Random(
            seed * 1_000_003 + zlib.crc32(spec.name.encode()) % 65_536 + widx * 7919
        )
        namespace = spec.namespace()
        model = stack.model
        my_keys = [key for key in range(spec.key_space) if key % spec.workers == widx]
        for seq in range(spec.ops_per_worker):
            yield stack.env.timeout(rng.uniform(*spec.think_us))
            roll = rng.random()
            if roll < spec.group_fraction:
                base = rng.randrange(max(1, len(my_keys) - spec.group_size))
                keys = my_keys[base:base + spec.group_size]
                items = [
                    (key, (spec.name, widx, key, seq), rng.choice(spec.value_sizes))
                    for key in keys
                ]
                ok, _ = yield from stack.timed_op(False, cluster.put(namespace, items))
                if ok:
                    for key, value, _size in items:
                        model[(namespace, key)] = value
            elif roll < spec.group_fraction + spec.put_fraction:
                key = rng.choice(my_keys)
                value = (spec.name, widx, key, seq)
                ok, _ = yield from stack.timed_op(False, cluster.put(
                    namespace, [(key, value, rng.choice(spec.value_sizes))]
                ))
                if ok:
                    model[(namespace, key)] = value
            elif roll < spec.group_fraction + spec.put_fraction + spec.delete_fraction:
                key = rng.choice(my_keys)
                ok, _ = yield from stack.timed_op(False, cluster.delete(namespace, key))
                if ok:
                    model[(namespace, key)] = None
            else:
                key = rng.choice(my_keys)
                ok, value = yield from stack.timed_op(True, cluster.get(namespace, key))
                if ok:
                    stack.check_read("get", (namespace, key), value,
                                     model.get((namespace, key)))

    def _hot_writer(self, stack: Stack, seed: int) -> Iterator[Any]:
        cluster: KamlCluster = stack.cluster
        rng = Random(seed * 7_368_787 + 11)
        for seq in range(self.HOT_OPS):
            yield stack.env.timeout(rng.uniform(*self.HOT_THINK_US))
            key = rng.randrange(self.HOT_KEYS)
            value = ("hot", key, seq)
            ok, _ = yield from stack.timed_op(False, cluster.put(
                self.HOT_NAMESPACE, [(key, value, self.HOT_VALUE_SIZE)]
            ))
            if ok:
                stack.model[(self.HOT_NAMESPACE, key)] = value

    def verify(self, stack: Stack) -> Iterator[Any]:
        cluster: KamlCluster = stack.cluster
        stack.collector.stop()
        if not stack.balancer.migrations:
            stack.fail("the autobalancer never migrated the hot homed namespace")
        yield from cluster.drain()
        for (namespace, key) in sorted(stack.model):
            stack.verified += 1
            observed = yield from cluster.get(namespace, key)
            stack.check_read("read-back", (namespace, key), observed,
                             stack.model[(namespace, key)])


WORKLOADS: Dict[str, Callable[[], Any]] = {
    StoreYcsbB.name: StoreYcsbB,
    SsdPutGc.name: SsdPutGc,
    ClusterTenants.name: ClusterTenants,
}
