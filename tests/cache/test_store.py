"""Integration tests for the KamlStore transactional API (Table II)."""

from repro.cache import KamlStore
from repro.config import KamlParams, ReproConfig
from repro.kaml import KamlSsd
from repro.sim import Environment


def make_store(records_per_lock=1, cache_bytes=1 << 20):
    env = Environment()
    config = ReproConfig.small()
    config = config.with_(kaml=KamlParams(num_logs=config.geometry.total_chips))
    ssd = KamlSsd(env, config)
    store = KamlStore(env, ssd, cache_bytes, records_per_lock=records_per_lock)
    return env, ssd, store


def run(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


def test_commit_publishes_updates():
    env, ssd, store = make_store()

    def flow():
        nsid = yield from store.create_namespace()
        txn = store.transaction_begin()
        yield from store.transaction_insert(txn, nsid, 1, "committed", 64)
        yield from store.transaction_commit(txn)
        store.transaction_free(txn)
        value = yield from store.get(nsid, 1)
        flash = yield from ssd.get(nsid, 1)
        return value, flash

    assert run(env, flow()) == ("committed", "committed")


def test_abort_discards_updates():
    env, ssd, store = make_store()

    def flow():
        nsid = yield from store.create_namespace()
        txn = store.transaction_begin()
        yield from store.transaction_insert(txn, nsid, 1, "phantom", 64)
        yield from store.transaction_abort(txn)
        store.transaction_free(txn)
        value = yield from store.get(nsid, 1)
        return value

    assert run(env, flow()) is None
    assert store.metrics.total("store.txn.aborted") == 1


def test_read_your_own_writes():
    env, ssd, store = make_store()

    def flow():
        nsid = yield from store.create_namespace()
        txn = store.transaction_begin()
        yield from store.transaction_update(txn, nsid, 1, "mine", 64)
        seen = yield from store.transaction_read(txn, nsid, 1)
        yield from store.transaction_commit(txn)
        store.transaction_free(txn)
        return seen

    assert run(env, flow()) == "mine"


def test_transactional_delete():
    env, ssd, store = make_store()

    def flow():
        nsid = yield from store.create_namespace()
        txn = store.transaction_begin()
        yield from store.transaction_insert(txn, nsid, 1, "x", 64)
        yield from store.transaction_commit(txn)
        store.transaction_free(txn)
        txn2 = store.transaction_begin()
        yield from store.transaction_delete(txn2, nsid, 1)
        inside = yield from store.transaction_read(txn2, nsid, 1)
        yield from store.transaction_commit(txn2)
        store.transaction_free(txn2)
        after = yield from ssd.get(nsid, 1)
        return inside, after

    assert run(env, flow()) == (None, None)


def test_multi_record_commit_is_atomic_on_flash():
    env, ssd, store = make_store()

    def flow():
        nsid = yield from store.create_namespace()
        txn = store.transaction_begin()
        for key in range(5):
            yield from store.transaction_insert(txn, nsid, key, ("rec", key), 64)
        yield from store.transaction_commit(txn)
        store.transaction_free(txn)
        yield from ssd.drain()
        values = []
        for key in range(5):
            value = yield from ssd.get(nsid, key)
            values.append(value)
        return values

    assert run(env, flow()) == [("rec", k) for k in range(5)]
    assert ssd.metrics.total("kaml.ssd.puts") == 1  # one atomic Put for the whole commit


def test_isolation_no_lost_updates():
    """Concurrent read-modify-write increments must all be serialized."""
    env, ssd, store = make_store()
    writers = 6

    def incrementer(nsid):
        def body(txn):
            current = yield from store.transaction_read(txn, nsid, 0)
            count = current[0] if current else 0
            yield from store.transaction_update(txn, nsid, 0, (count + 1, 64), 64)
            return None
        yield from store.run_transaction(body)

    def flow():
        nsid = yield from store.create_namespace()
        procs = [env.process(incrementer(nsid)) for _ in range(writers)]
        yield env.all_of(procs)
        final = yield from store.get(nsid, 0)
        return final

    final = run(env, flow())
    assert final == (writers, 64)


def test_deadlock_victim_retries_and_completes():
    env, ssd, store = make_store()

    def crosser(nsid, first, second):
        def body(txn):
            a = yield from store.transaction_read(txn, nsid, first)
            yield from store.transaction_update(
                txn, nsid, second, ((a[0] if a else 0) + 1, 64), 64
            )
            return None
        yield from store.run_transaction(body)

    def flow():
        nsid = yield from store.create_namespace()
        p1 = env.process(crosser(nsid, 0, 1))
        p2 = env.process(crosser(nsid, 1, 0))
        yield env.all_of([p1, p2])
        return True

    assert run(env, flow())
    assert store.metrics.total("store.txn.committed") == 2


def test_disjoint_transactions_commit_in_parallel():
    """Commits without data conflicts overlap (Section V-D-1)."""
    env, ssd, store = make_store()
    finish_times = []

    def worker(nsid, key):
        txn = store.transaction_begin()
        yield from store.transaction_insert(txn, nsid, key, "v", 512)
        yield from store.transaction_commit(txn)
        store.transaction_free(txn)
        finish_times.append(env.now)

    def flow():
        nsid = yield from store.create_namespace()
        start = env.now
        procs = [env.process(worker(nsid, key)) for key in range(8)]
        yield env.all_of(procs)
        return env.now - start

    elapsed = run(env, flow())
    solo = max(finish_times) - min(finish_times)
    # Eight commits finish within a small window of each other rather
    # than serializing end-to-end.
    assert solo < elapsed
    assert store.metrics.total("store.txn.committed") == 8


def test_lock_striping_serializes_neighbors():
    env, ssd, store = make_store(records_per_lock=16)
    grants = []

    def worker(nsid, key):
        txn = store.transaction_begin()
        yield from store.transaction_update(txn, nsid, key, "v", 64)
        grants.append(env.now)
        yield env.timeout(50.0)
        yield from store.transaction_commit(txn)
        store.transaction_free(txn)

    def flow():
        nsid = yield from store.create_namespace()
        p1 = env.process(worker(nsid, 0))
        p2 = env.process(worker(nsid, 1))
        yield env.all_of([p1, p2])

    run(env, flow())
    assert max(grants) - min(grants) >= 50.0


def test_cache_hit_serves_transaction_read():
    env, ssd, store = make_store()

    def flow():
        nsid = yield from store.create_namespace()
        yield from store.put(nsid, 9, "warm", 64)
        txn = store.transaction_begin()
        value = yield from store.transaction_read(txn, nsid, 9)
        yield from store.transaction_commit(txn)
        store.transaction_free(txn)
        return value

    assert run(env, flow()) == "warm"
    assert store.buffer.metrics.total("cache.hits") == 1
    assert store.buffer.metrics.total("cache.misses") == 0


def test_run_transaction_returns_body_value():
    env, ssd, store = make_store()

    def flow():
        nsid = yield from store.create_namespace()

        def body(txn):
            yield from store.transaction_insert(txn, nsid, 3, "x", 64)
            return "body-result"

        result = yield from store.run_transaction(body)
        return result

    assert run(env, flow()) == "body-result"
