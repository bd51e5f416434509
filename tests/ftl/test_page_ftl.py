"""Functional tests for the conventional page FTL and NVMe block device."""

import pytest

from repro.blockdev import NvmeBlockDevice
from repro.config import BlockFtlParams, FlashGeometry, ReproConfig
from repro.ftl.page_ftl import LOGICAL_PAGE, FtlError
from repro.sim import Environment


def make_device(geometry=None, **ftl_overrides):
    env = Environment()
    config = ReproConfig.small()
    if geometry is not None:
        config = config.with_(geometry=geometry)
    if ftl_overrides:
        config = config.with_(block_ftl=BlockFtlParams(**ftl_overrides))
    return env, NvmeBlockDevice(env, config)


def run(env, gen):
    proc = env.process(gen)
    env.run()
    return proc.value


def test_write_then_read_roundtrip():
    env, dev = make_device()

    def flow():
        yield from dev.write(5, "hello")
        result = yield from dev.read(5)
        return result

    assert run(env, flow()) == "hello"


def test_read_unmapped_returns_none():
    env, dev = make_device()

    def flow():
        result = yield from dev.read(7)
        return result

    assert run(env, flow()) is None


def test_overwrite_returns_latest():
    env, dev = make_device()

    def flow():
        yield from dev.write(3, "v1")
        yield from dev.write(3, "v2")
        yield from dev.write(3, "v3")
        result = yield from dev.read(3)
        return result

    assert run(env, flow()) == "v3"


def test_read_after_flash_drain():
    env, dev = make_device()

    def flow():
        for lpn in range(8):
            yield from dev.write(lpn, f"data-{lpn}")
        yield from dev.drain()
        yield env.timeout(10000.0)
        results = []
        for lpn in range(8):
            value = yield from dev.read(lpn)
            results.append(value)
        return results

    assert run(env, flow()) == [f"data-{lpn}" for lpn in range(8)]


def test_lpn_bounds_checked():
    env, dev = make_device()

    def flow():
        yield from dev.read(dev.logical_pages)

    with pytest.raises(FtlError):
        run(env, flow())


def test_write_size_validation():
    env, dev = make_device()

    def flow():
        yield from dev.write(0, "x", nbytes=LOGICAL_PAGE + 1)

    with pytest.raises(FtlError):
        run(env, flow())


def test_subpage_write_triggers_rmw_on_mapped_lba():
    env, dev = make_device()
    dev.precondition()

    def flow():
        before = dev.ftl.metrics.total("ftl.rmw_reads")
        yield from dev.write(0, "small", nbytes=512)
        return dev.ftl.metrics.total("ftl.rmw_reads") - before

    assert run(env, flow()) == 1


def test_subpage_write_no_rmw_on_unmapped_lba():
    env, dev = make_device()

    def flow():
        before = dev.ftl.metrics.total("ftl.rmw_reads")
        yield from dev.write(0, "small", nbytes=512)
        return dev.ftl.metrics.total("ftl.rmw_reads") - before

    assert run(env, flow()) == 0


def test_full_page_write_never_rmw():
    env, dev = make_device()
    dev.precondition()

    def flow():
        before = dev.ftl.metrics.total("ftl.rmw_reads")
        yield from dev.write(0, "big", nbytes=LOGICAL_PAGE)
        return dev.ftl.metrics.total("ftl.rmw_reads") - before

    assert run(env, flow()) == 0


def test_subpage_write_slower_than_full_page():
    """The Figure 5b/6b mechanism: small writes pay a flash read."""
    env, dev = make_device()
    dev.precondition()

    def timed_write(lpn, nbytes):
        start = env.now
        yield from dev.write(lpn, "x", nbytes=nbytes)
        return env.now - start

    def flow():
        small = yield from timed_write(0, 512)
        yield env.timeout(100000.0)
        full = yield from timed_write(1, LOGICAL_PAGE)
        return small, full

    small, full = run(env, flow())
    assert small > 3.0 * full


def test_precondition_maps_everything():
    env, dev = make_device()
    dev.precondition()
    assert dev.ftl.map.mapped_count() == dev.logical_pages

    def flow():
        value = yield from dev.read(10)
        return value

    assert run(env, flow()) == ("precondition", 10)


def test_gc_reclaims_space_under_overwrite_churn():
    geometry = FlashGeometry(
        channels=1, chips_per_channel=1, blocks_per_chip=12, pages_per_block=4
    )
    env, dev = make_device(geometry=geometry)
    # Working set much smaller than the device: overwrite it many times so
    # GC must reclaim stale blocks.
    working_set = 8
    total_writes = dev.logical_pages * 3

    def flow():
        for i in range(total_writes):
            lpn = i % working_set
            yield from dev.write(lpn, ("v", i))
            # Pace writes so flash drain keeps up with NVRAM acks.
            yield env.timeout(2000.0)
        yield from dev.drain()
        yield env.timeout(100000.0)
        results = []
        for lpn in range(working_set):
            value = yield from dev.read(lpn)
            results.append(value)
        return results

    results = run(env, flow())
    for lpn, value in enumerate(results):
        last_i = ((total_writes - 1 - lpn) // working_set) * working_set + lpn
        assert value == ("v", last_i), lpn
    assert dev.ftl.metrics.total("ftl.gc.erased_blocks") > 0


def test_gc_preserves_cold_data():
    geometry = FlashGeometry(
        channels=1, chips_per_channel=1, blocks_per_chip=12, pages_per_block=4
    )
    env, dev = make_device(geometry=geometry)
    cold = {lpn: f"cold-{lpn}" for lpn in range(4)}

    def flow():
        for lpn, value in cold.items():
            yield from dev.write(lpn, value)
            yield env.timeout(2000.0)
        # Churn hot pages to force GC around the cold ones.
        for i in range(dev.logical_pages * 2):
            yield from dev.write(10 + (i % 4), ("hot", i))
            yield env.timeout(2000.0)
        yield from dev.drain()
        yield env.timeout(100000.0)
        values = []
        for lpn in cold:
            value = yield from dev.read(lpn)
            values.append(value)
        return values

    values = run(env, flow())
    assert values == list(cold.values())
    assert dev.ftl.metrics.total("ftl.gc.erased_blocks") > 0


def test_concurrent_writers_consistent():
    env, dev = make_device()
    writers = 4
    per_writer = 6

    def writer(wid):
        for i in range(per_writer):
            yield from dev.write(wid * per_writer + i, (wid, i))

    def checker():
        yield env.timeout(500000.0)
        values = []
        for wid in range(writers):
            for i in range(per_writer):
                value = yield from dev.read(wid * per_writer + i)
                values.append(value == (wid, i))
        return values

    for wid in range(writers):
        env.process(writer(wid))
    p = env.process(checker())
    env.run()
    assert all(p.value)


def test_idle_fill_buffer_flushes_on_timer():
    env, dev = make_device()

    def flow():
        yield from dev.write(0, "lonely")  # half a physical page
        programs_before = dev.array.total_programs()
        yield env.timeout(dev.config.block_ftl.buffer_flush_timeout_us * 4)
        return dev.array.total_programs() - programs_before

    assert run(env, flow()) >= 1
