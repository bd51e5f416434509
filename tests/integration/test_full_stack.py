"""Cross-module integration tests: whole-stack behaviours the unit tests
cannot see (cache + SSD + GC + transactions interacting)."""

from repro.cache import KamlStore
from repro.config import FlashGeometry, KamlParams, ReproConfig
from repro.harness import build_kaml_store
from repro.kaml import KamlSsd, NamespaceAttributes, PutItem
from repro.sim import Environment
from repro.workloads import KamlAdapter, TpcB, Ycsb


def test_transactions_survive_gc_pressure():
    """Transactional state stays consistent while the SSD's GC churns
    underneath the caching layer (tiny device, heavy overwrite)."""
    env = Environment()
    geometry = FlashGeometry(
        channels=1, chips_per_channel=2, blocks_per_chip=10, pages_per_block=4
    )
    config = ReproConfig().with_(
        geometry=geometry, kaml=KamlParams(num_logs=2, flush_timeout_us=200.0)
    )
    ssd = KamlSsd(env, config)
    store = KamlStore(env, ssd, cache_bytes=4096)

    def flow():
        nsid = yield from store.create_namespace(
            NamespaceAttributes(expected_keys=64)
        )
        for round_number in range(60):
            txn = store.transaction_begin()
            for key in range(4):
                yield from store.transaction_update(
                    txn, nsid, key, ("round", round_number, key), 2048
                )
            yield from store.transaction_commit(txn)
            store.transaction_free(txn)
            yield env.timeout(4000.0)
        values = []
        for key in range(4):
            value = yield from store.get(nsid, key)
            values.append(value)
        return values

    proc = env.process(flow())
    env.run_until(proc)
    assert proc.value == [("round", 59, key) for key in range(4)]
    assert ssd.metrics.total("kaml.log.gc.erased_blocks") > 0


def test_cache_miss_path_reads_through_ssd():
    """Evicted-but-committed data round-trips through flash."""
    env, ssd, store = build_kaml_store(cache_bytes=2048, config=ReproConfig.small())

    def flow():
        nsid = yield from store.create_namespace()
        # Write far more than the 2 KB cache can hold.
        for key in range(32):
            txn = store.transaction_begin()
            yield from store.transaction_insert(txn, nsid, key, ("v", key), 512)
            yield from store.transaction_commit(txn)
            store.transaction_free(txn)
        yield from ssd.drain()
        values = []
        for key in range(32):
            value = yield from store.get(nsid, key)
            values.append(value)
        return values

    proc = env.process(flow())
    env.run_until(proc)
    assert proc.value == [("v", key) for key in range(32)]
    assert store.buffer.metrics.total("cache.evictions") > 0
    assert store.buffer.metrics.total("cache.misses") > 0


def test_tpcb_invariant_with_tiny_cache():
    """The money invariant holds even when every read misses the cache."""
    env, ssd, store = build_kaml_store(cache_bytes=4096)
    adapter = KamlAdapter(store)
    tpcb = TpcB(env, adapter, branches=1, accounts_per_branch=30)
    tpcb.setup()
    tpcb.run(threads=4, txns_per_thread=6)

    def audit():
        total = 0
        for account in range(30):
            value = yield from store.get(adapter.namespace_of("account"), account)
            total += value or 0
        branch = yield from store.get(adapter.namespace_of("branch"), 0)
        return total, branch or 0

    proc = env.process(audit())
    env.run_until(proc)
    total, branch_total = proc.value
    assert total == branch_total


def test_ycsb_after_crash_recovery():
    """Run YCSB, crash the SSD mid-flight, recover, and verify every key
    still reads *some* complete committed value."""
    env, ssd, store = build_kaml_store(cache_bytes=1 << 20)
    adapter = KamlAdapter(store)
    ycsb = Ycsb(env, adapter, records=60, workload="a", seed=9)
    ycsb.setup()

    def traffic():
        result = ycsb.run(threads=4, ops_per_thread=10)
        return result

    # Run traffic to completion, then crash with whatever is staged.
    result = traffic()
    ssd.simulate_crash()

    def recovery():
        yield from ssd.recover()
        values = []
        for key in range(60):
            value = yield from ssd.get(adapter.namespace_of("usertable"), key)
            values.append(value)
        return values

    proc = env.process(recovery())
    env.run_until(proc)
    assert result.transactions == 40
    for key, value in enumerate(proc.value):
        assert value is not None, key
        assert value[0] == "ycsb"
        assert value[1] == key


def test_namespace_isolation_under_mixed_traffic():
    """Two namespaces share logs; traffic in one never leaks into the other."""
    env, ssd, store = build_kaml_store(cache_bytes=1 << 20, config=ReproConfig.small())

    def flow():
        ns_a = yield from store.create_namespace()
        ns_b = yield from store.create_namespace()
        for key in range(16):
            yield from store.put(ns_a, key, ("a", key), 256)
            yield from store.put(ns_b, key, ("b", key * 2), 256)
        yield from ssd.drain()
        a_values = []
        b_values = []
        for key in range(16):
            a = yield from ssd.get(ns_a, key)
            b = yield from ssd.get(ns_b, key)
            a_values.append(a)
            b_values.append(b)
        return a_values, b_values

    proc = env.process(flow())
    env.run_until(proc)
    a_values, b_values = proc.value
    assert a_values == [("a", key) for key in range(16)]
    assert b_values == [("b", key * 2) for key in range(16)]


def test_delete_namespace_frees_space_for_gc():
    """Dropping a namespace turns its records into garbage that GC can
    reclaim for a second namespace."""
    env = Environment()
    geometry = FlashGeometry(
        channels=1, chips_per_channel=1, blocks_per_chip=10, pages_per_block=4
    )
    config = ReproConfig().with_(
        geometry=geometry, kaml=KamlParams(num_logs=1, flush_timeout_us=200.0)
    )
    ssd = KamlSsd(env, config)

    def flow():
        first = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=64))
        # Fill most of the device with the first namespace.
        for key in range(30):
            yield from ssd.put([PutItem(first, key, "bulk", 7000)])
            yield env.timeout(2000.0)
        yield from ssd.drain()
        yield from ssd.delete_namespace(first)
        second = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=64))
        # The second namespace needs the space the first one wasted.
        for key in range(30):
            yield from ssd.put([PutItem(second, key, ("two", key), 7000)])
            yield env.timeout(3000.0)
        yield from ssd.drain()
        value = yield from ssd.get(second, 29)
        return value

    proc = env.process(flow())
    env.run_until(proc)
    assert proc.value == ("two", 29)
    assert ssd.metrics.total("kaml.log.gc.erased_blocks", log=0) > 0
