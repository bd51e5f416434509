"""KAML garbage collection under churn, wear behaviour, and crash recovery."""

from repro.config import FlashGeometry, KamlParams, ReproConfig
from repro.kaml import KamlSsd, NamespaceAttributes, PutItem
from repro.sim import Environment


def make_small_ssd():
    """One log over a dozen tiny blocks: GC pressure arrives quickly."""
    env = Environment()
    geometry = FlashGeometry(
        channels=1, chips_per_channel=1, blocks_per_chip=12, pages_per_block=4
    )
    config = ReproConfig().with_(
        geometry=geometry,
        kaml=KamlParams(num_logs=1, flush_timeout_us=200.0),
    )
    return env, KamlSsd(env, config)


def run(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


def put_one(ssd, nsid, key, value, size=2048):
    yield from ssd.put([PutItem(nsid, key, value, size)])


def test_gc_reclaims_space_under_churn():
    env, ssd = make_small_ssd()
    working_set = 4
    # Device: 12 blocks * 4 pages * 8 KB = 384 KB; each record ~2 KB.
    total_writes = 400

    def flow():
        nsid = yield from ssd.create_namespace(
            NamespaceAttributes(expected_keys=working_set)
        )
        for i in range(total_writes):
            yield from put_one(ssd, nsid, i % working_set, ("v", i))
            yield env.timeout(1500.0)  # let flash drain keep pace
        yield from ssd.drain()
        out = []
        for key in range(working_set):
            value = yield from ssd.get(nsid, key)
            out.append(value)
        return out

    values = run(env, flow())
    for key, value in enumerate(values):
        last_i = ((total_writes - 1 - key) // working_set) * working_set + key
        assert value == ("v", last_i), key
    assert ssd.metrics.total("kaml.log.gc.erased_blocks", log=0) > 0


def test_gc_preserves_cold_records():
    env, ssd = make_small_ssd()

    def flow():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=64))
        for key in range(4):
            yield from put_one(ssd, nsid, 1000 + key, ("cold", key))
            yield env.timeout(1500.0)
        for i in range(300):
            yield from put_one(ssd, nsid, i % 4, ("hot", i))
            yield env.timeout(1500.0)
        yield from ssd.drain()
        out = []
        for key in range(4):
            value = yield from ssd.get(nsid, 1000 + key)
            out.append(value)
        return out

    values = run(env, flow())
    assert values == [("cold", key) for key in range(4)]
    assert ssd.metrics.total("kaml.log.gc.erased_blocks", log=0) > 0


def test_gc_spreads_erases():
    """Wear-aware victim selection keeps the erase-count spread tight."""
    env, ssd = make_small_ssd()

    def flow():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=8))
        for i in range(600):
            yield from put_one(ssd, nsid, i % 4, ("w", i))
            yield env.timeout(1500.0)
        yield from ssd.drain()

    run(env, flow())
    low, high = ssd.array.erase_count_spread()
    assert high > 0
    assert high - low <= max(4, high // 2 + 2)


def test_deleted_namespace_records_become_garbage():
    env, ssd = make_small_ssd()

    def flow():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=16))
        yield from ssd.put([PutItem(nsid, k, "junk", 2048) for k in range(8)])
        yield from ssd.drain()
        block_valid_before = sum(ssd._valid_bytes.values())
        yield from ssd.delete_namespace(nsid)
        return block_valid_before

    valid_before = run(env, flow())
    assert valid_before > 0
    assert sum(ssd._valid_bytes.values()) == 0


# -- crash / recovery ---------------------------------------------------------

def test_recovery_replays_staged_batch():
    env, ssd = make_small_ssd()
    state = {}

    def writer():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=16))
        state["nsid"] = nsid
        yield from ssd.put([
            PutItem(nsid, 1, "alpha", 512),
            PutItem(nsid, 2, "beta", 512),
        ])
        state["acked"] = True

    env.process(writer())
    # Stop right after the ack, before the flush timer programs the page.
    env.run(until=150.0)
    assert state.get("acked")
    ssd.simulate_crash()

    def recovery_flow():
        yield from ssd.recover()
        a = yield from ssd.get(state["nsid"], 1)
        b = yield from ssd.get(state["nsid"], 2)
        return a, b

    assert run(env, recovery_flow()) == ("alpha", "beta")
    assert ssd.metrics.total("kaml.ssd.recovered_batches") >= 1


def test_recovery_is_atomic_per_batch():
    """Every record of a staged batch is visible after recovery, or the
    batch never happened; no partial application."""
    env, ssd = make_small_ssd()
    state = {}

    def writer():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=64))
        state["nsid"] = nsid
        items = [PutItem(nsid, k, ("batch", k), 256) for k in range(10)]
        yield from ssd.put(items)

    env.process(writer())
    env.run(until=120.0)
    ssd.simulate_crash()

    def recovery_flow():
        yield from ssd.recover()
        values = []
        for k in range(10):
            value = yield from ssd.get(state["nsid"], k)
            values.append(value)
        return values

    values = run(env, recovery_flow())
    present = [v for v in values if v is not None]
    assert len(present) in (0, 10)
    if present:
        assert values == [("batch", k) for k in range(10)]


def test_recovery_preserves_pre_crash_data():
    env, ssd = make_small_ssd()
    state = {}

    def writer():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=16))
        state["nsid"] = nsid
        yield from put_one(ssd, nsid, 100, "durable", size=512)
        yield from ssd.drain()
        state["drained"] = True
        # This one is staged but likely not flushed at crash time.
        yield from put_one(ssd, nsid, 200, "staged", size=512)
        state["second_acked"] = True

    env.process(writer())
    env.run(until=60000.0)
    assert state.get("drained") and state.get("second_acked")
    ssd.simulate_crash()

    def recovery_flow():
        yield from ssd.recover()
        a = yield from ssd.get(state["nsid"], 100)
        b = yield from ssd.get(state["nsid"], 200)
        return a, b

    assert run(env, recovery_flow()) == ("durable", "staged")


def test_recovery_with_nothing_staged_is_noop():
    env, ssd = make_small_ssd()

    def flow():
        nsid = yield from ssd.create_namespace()
        yield from put_one(ssd, nsid, 1, "x", size=512)
        yield from ssd.drain()
        return nsid

    nsid = run(env, flow())
    ssd.simulate_crash()

    def recovery_flow():
        yield from ssd.recover()
        value = yield from ssd.get(nsid, 1)
        return value

    assert run(env, recovery_flow()) == "x"
    assert ssd.metrics.total("kaml.ssd.recovered_batches") == 0


def test_recovery_last_writer_wins_for_same_key():
    """Both Puts to key 5 are staged in NVRAM at crash time (the second is
    still waiting on the first's entry lock); replay is oldest-first, so
    the second value must win after recovery."""
    env, ssd = make_small_ssd()
    state = {}

    def writer():
        nsid = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=16))
        state["nsid"] = nsid
        yield from put_one(ssd, nsid, 5, "first", size=256)
        yield from put_one(ssd, nsid, 5, "second", size=256)

    env.process(writer())
    env.run(until=400.0)
    assert len(ssd.nvram) >= 1  # at least the unfinished batch is staged
    ssd.simulate_crash()

    def recovery_flow():
        yield from ssd.recover()
        value = yield from ssd.get(state["nsid"], 5)
        return value

    assert run(env, recovery_flow()) == "second"
